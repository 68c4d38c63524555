package services

import (
	"mobigate/internal/streamlet"
)

// Library names under which the standard services are advertised in the
// Streamlet Directory (§3.3.7). They match the `library` attributes used in
// the thesis's MCL examples.
const (
	LibSwitch       = "general/switch"
	LibMerge        = "general/merge"
	LibCache        = "general/cache"
	LibDownSample   = "image/downsample"
	LibGray16       = "image/gray16"
	LibGif2Jpeg     = "image/gif2jpeg"
	LibPS2Text      = "text/ps2text"
	LibTextCompress = "text/compress"
	LibFooter       = "text/footer"
	LibDecompress   = "text/decompress"
	LibEncrypt      = "crypto/encrypt"
	LibDecrypt      = "crypto/decrypt"
	LibPowerSave    = "system/powersave"
	LibRedirector   = "bench/redirector"
)

// RegisterAll advertises every self-contained service in the directory.
// The Communicator is not registered: it needs an explicit network sink and
// is wired by the server front-end.
func RegisterAll(dir *streamlet.Directory) {
	dir.Register(LibSwitch, func() streamlet.Processor { return NewDistillationSwitch() })
	dir.Register(LibMerge, func() streamlet.Processor { return &Merge{} })
	dir.Register(LibCache, func() streamlet.Processor { return &Cache{} })
	dir.Register(LibDownSample, func() streamlet.Processor { return &DownSampler{} })
	dir.Register(LibGray16, func() streamlet.Processor { return Gray16Mapper{} })
	dir.Register(LibGif2Jpeg, func() streamlet.Processor { return &Transcoder{} })
	dir.Register(LibPS2Text, func() streamlet.Processor { return PS2Text{} })
	dir.Register(LibTextCompress, func() streamlet.Processor { return &Compressor{} })
	dir.Register(LibFooter, func() streamlet.Processor { return &Footer{} })
	dir.Register(LibDecompress, func() streamlet.Processor { return Decompressor{} })
	dir.Register(LibEncrypt, func() streamlet.Processor { return &Encryptor{} })
	dir.Register(LibDecrypt, func() streamlet.Processor { return &Decryptor{} })
	dir.Register(LibPowerSave, func() streamlet.Processor { return &PowerSaving{} })
	dir.Register(LibRedirector, func() streamlet.Processor { return Redirector{} })
	dir.Register(LibSign, func() streamlet.Processor { return &Signer{} })
	dir.Register(LibVerify, func() streamlet.Processor { return &Verifier{} })

	// Capability traits (execution-plane contracts the coordination plane
	// enforces): Parallelizable marks pure per-message transforms legal for
	// `workers > 1` fan-out; PoolPreferred marks the expensive transcoders whose
	// instance pooling (§3.3.4) pays for its overhead — everything else is
	// constructed fresh per stream since the pooling ablation showed the
	// pool costs more than a trivial constructor.
	pure := streamlet.Traits{Parallelizable: true, PoolPreferred: true}
	dir.SetTraits(LibDownSample, pure)
	dir.SetTraits(LibGray16, pure)
	dir.SetTraits(LibGif2Jpeg, pure)
	dir.SetTraits(LibTextCompress, pure)
	dir.SetTraits(LibPS2Text, streamlet.Traits{Parallelizable: true})
	dir.SetTraits(LibFooter, streamlet.Traits{Parallelizable: true})
	dir.SetTraits(LibDecompress, streamlet.Traits{Parallelizable: true})
	dir.SetTraits(LibRedirector, streamlet.Traits{Parallelizable: true})
	dir.SetTraits(LibEncrypt, streamlet.Traits{Parallelizable: true, PoolPreferred: true})
	dir.SetTraits(LibDecrypt, streamlet.Traits{Parallelizable: true})
	dir.SetTraits(LibSign, streamlet.Traits{Parallelizable: true, PoolPreferred: true})
	dir.SetTraits(LibVerify, streamlet.Traits{Parallelizable: true})
	// Switch routes on per-message headers but is order-insensitive per
	// port; Merge and Cache carry cross-message state and stay serial.
}

// RegisterClientPeers advertises the reverse-processing streamlets a
// MobiGATE client needs, keyed by peer ID (§6.5).
func RegisterClientPeers(dir *streamlet.Directory) {
	dir.Register(CompressorPeerID, func() streamlet.Processor { return Decompressor{} })
	dir.Register(EncryptorPeerID, func() streamlet.Processor { return &Decryptor{} })
	dir.Register(SignerPeerID, func() streamlet.Processor { return &Verifier{} })
}
