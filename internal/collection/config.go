package collection

import (
	"fmt"

	"msync/internal/core"
	"msync/internal/wire"
)

// protocolVersion guards wire compatibility.
const protocolVersion = 1

// The config keeps a place for nine fields of techniques msync no longer
// runs: two-phase rounds, local hashes (their switch, radius, range and
// slack), adaptive early stopping (its switch, minimum block and factor) and
// the hash family. They are written as the constants every preset wrote while
// the techniques existed, so verdict frames, ConfigFingerprint and warm
// signature caches stay byte-identical.
const (
	retiredLocalRadius = 256
	retiredLocalRange  = 4096
	retiredLocalSlack  = 5
)

// errRetiredConfig refuses a peer's config that switches on a retired
// technique — two-phase rounds, local hashes, adaptive early stopping, or a
// hash family other than the polynomial one — which this engine cannot plan
// in step with that peer.
var errRetiredConfig = fmt.Errorf("%w: config switches on a retired technique", core.ErrProtocol)

// grant is what a holder grants of a receiver's hello and ships after the
// config: nothing, the whole-content stream (hello extension 5), or that and
// the delta stream (hello extension 7), which is only granted with it. Its
// value is the number of grant fields, each a 1, after the config's map mode.
type grant byte

const (
	grantNone grant = iota
	grantStream
	grantDeltaStream
)

// encodeConfig serializes the protocol configuration. The server is
// authoritative: it ships its config in the verdicts message and the client
// builds its engines from it, so both sides always plan identically. g is no
// part of the config itself, so ConfigFingerprint encodes without it.
func encodeConfig(c *core.Config, g grant) []byte {
	b := wire.NewBuffer(64)
	b.Uvarint(uint64(c.MaxBlockSize))
	b.Uvarint(uint64(c.MinBlockSize))
	b.Uvarint(uint64(c.ContMinBlock))
	b.Uvarint(uint64(c.ContBits))
	b.Uvarint(uint64(c.SlackBits))
	b.Uvarint(uint64(c.MinHashBits))
	b.Uvarint(uint64(c.MaxHashBits))
	b.Uvarint(uint64(c.VerifyBits))
	b.Uvarint(uint64(c.Verify.Batches))
	b.Uvarint(uint64(c.Verify.GroupSize))
	b.Uvarint(uint64(c.Verify.TrustedGroupSize))
	b.Uvarint(uint64(c.Verify.SplitFactor))
	b.Uvarint(uint64(c.Verify.RetryAlternates))
	b.Bool(c.Decomposable)
	b.Bool(false) // two-phase rounds
	b.Bool(false) // local hashes
	b.Uvarint(retiredLocalRadius)
	b.Uvarint(retiredLocalRange)
	b.Uvarint(retiredLocalSlack)
	b.Uvarint(uint64(c.MaxAlternates))
	b.Bool(false) // adaptive early stopping
	b.Uvarint(0)  // its minimum block
	b.Uvarint(0)  // and its factor
	b.String("")  // the hash family: "" is the polynomial one
	// The map mode rides as an optional trailing field: sessions that
	// negotiated CDC (hello extension 4) append it; halving sessions end
	// the config here, byte-identical to pre-CDC servers. A granted stream
	// is a second one, a 1, after the map mode, which is then written even
	// for halving; a granted delta stream a third, a 1 again.
	if c.MapMode != core.MapHalving || g != grantNone {
		b.Uvarint(uint64(c.MapMode))
	}
	for range g {
		b.Uvarint(1)
	}
	return b.Build()
}

// decodeConfig parses a configuration and what it grants. A config that
// switches on a retired technique is refused with errRetiredConfig; the
// retired numbers are read and ignored. One that does not parse, grants with
// anything but a 1 or fails Validate is a protocol error too: the holder's
// config sizes the receiver's engines.
func decodeConfig(p []byte) (core.Config, grant, error) {
	pr := wire.NewParser(p)
	var err error
	num := func() uint64 {
		var x uint64
		if err == nil {
			x, err = pr.Uvarint()
		}
		return x
	}
	flag := func() bool {
		var v bool
		if err == nil {
			v, err = pr.Bool()
		}
		return v
	}
	var c core.Config
	c.MaxBlockSize, c.MinBlockSize, c.ContMinBlock = int(num()), int(num()), int(num())
	c.ContBits, c.SlackBits, c.MinHashBits, c.MaxHashBits, c.VerifyBits = uint(num()), uint(num()), uint(num()), uint(num()), uint(num())
	v := &c.Verify
	v.Batches, v.GroupSize, v.TrustedGroupSize, v.SplitFactor, v.RetryAlternates = int(num()), int(num()), int(num()), int(num()), int(num())
	c.Decomposable = flag()
	twoPhase, local := flag(), flag()
	num() // local-hash radius, range and slack
	num()
	num()
	c.MaxAlternates = int(num())
	adaptive := flag()
	num() // adaptive minimum block and factor
	num()
	var family string
	if err == nil {
		family, err = pr.String()
	}
	if err == nil && pr.Remaining() > 0 {
		c.MapMode = core.MapMode(num())
	}
	g := grantNone
	for g < grantDeltaStream && err == nil && pr.Remaining() > 0 {
		if num() != 1 && err == nil {
			err = fmt.Errorf("a stream grant other than 1")
		}
		g++
	}
	if err != nil {
		return c, grantNone, fmt.Errorf("%w: collection: config: %w", core.ErrProtocol, err)
	}
	if twoPhase || local || adaptive || (family != "" && family != "poly") {
		return c, grantNone, fmt.Errorf("%w (two-phase %v, local hashes %v, adaptive %v, hash family %q)", errRetiredConfig, twoPhase, local, adaptive, family)
	}
	if err := c.Validate(); err != nil {
		return c, grantNone, fmt.Errorf("%w: collection: config: %w", core.ErrProtocol, err)
	}
	return c, g, nil
}
