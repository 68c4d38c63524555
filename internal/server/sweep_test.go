package server

import (
	"testing"
	"time"

	"mobigate/internal/mime"
	"mobigate/internal/services"
	"mobigate/internal/session"
)

// TestSessionSweeper exercises the idle reaper the server's -session-sweep
// flag arms: quiet sessions demote to Idle on a sweep, a fresh post
// promotes the session back to Active, and the ticker-driven sweeper
// demotes on its own until stopped.
func TestSessionSweeper(t *testing.T) {
	srv := newSessionServer(t)
	fe := NewFrontend(srv, nil)
	fe.EnableSharedSessions(SessionGatewayConfig{Instances: 1})
	t.Cleanup(func() { fe.Close() })
	gw, err := fe.gateway("shared")
	if err != nil || gw == nil {
		t.Fatalf("gateway: %v %v", gw, err)
	}

	s0, ch0, err := gw.Connect("sweep-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gw.Connect("sweep-1"); err != nil {
		t.Fatal(err)
	}
	go func() { // drain s0's deliveries so the relay never sheds them
		for range ch0 {
		}
	}()

	// Both sessions go quiet past the threshold: sweeps demote each once.
	idled := 0
	if !waitUntil(func() bool {
		idled += fe.SweepSessions(10 * time.Millisecond)
		return idled >= 2
	}) || idled != 2 {
		t.Fatalf("SweepSessions demoted %d, want 2", idled)
	}
	if st := s0.State(); st != session.StateIdle {
		t.Fatalf("s0 state after sweep = %v, want Idle", st)
	}

	// Idle is bookkeeping, not a barrier: the next post promotes back.
	if err := gw.Send(s0, mime.NewMessage(services.TypePlainText, []byte("wake"))); err != nil {
		t.Fatal(err)
	}
	if st := s0.State(); st != session.StateActive {
		t.Fatalf("s0 state after post = %v, want Active", st)
	}

	// A sweep with a generous threshold demotes nothing.
	if idled := fe.SweepSessions(time.Hour); idled != 0 {
		t.Fatalf("SweepSessions(1h) demoted %d, want 0", idled)
	}

	// The ticker-driven sweeper demotes the re-activated session on its
	// own; stop is idempotent.
	stop := fe.StartSessionSweeper(5*time.Millisecond, 5*time.Millisecond)
	if !waitUntil(func() bool { return s0.State() == session.StateIdle }) {
		t.Fatal("sweeper never demoted the quiet session")
	}
	stop()
	stop()
}
