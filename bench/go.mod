module mobigate/bench

go 1.23

require mobigate v0.0.0

replace mobigate => ../
