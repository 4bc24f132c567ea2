package collection

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/obs"
)

// cdcSession runs one sync with the client requesting CDC map construction
// (hello extension 4) and returns both sides' results.
func cdcSession(t *testing.T, serverFiles, clientFiles map[string][]byte, tune func(*Server, *Client)) (*Result, *Result) {
	t.Helper()
	cfg := core.DefaultConfig()
	res, serverCosts := func() (*Result, *Result) {
		r, sc := pipeSession(t, serverFiles, clientFiles, cfg, 1, func(s *Server, c *Client) {
			c.MapMode = core.MapCDC
			if tune != nil {
				tune(s, c)
			}
		})
		return r, &Result{Costs: sc}
	}()
	return res, serverCosts
}

// TestCDCModeRoundTrip: a client-requested CDC session converges, both sides
// account CDC work, and the legacy session on the same pair accounts none.
func TestCDCModeRoundTrip(t *testing.T) {
	v1, v2 := corpus.DefaultDBDumpProfile(0.25).Generate(3)
	ring := obs.NewRing(256)
	res, srv := cdcSession(t, v2.Map(), v1.Map(), func(s *Server, c *Client) {
		c.Tracer = ring
	})
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatalf("cdc session diverged: %v", err)
	}
	if res.Costs.FilesCDC == 0 || res.Costs.CDCChunks == 0 {
		t.Fatalf("client CDC accounting empty: %+v", res.Costs)
	}
	if srv.Costs.FilesCDC != res.Costs.FilesCDC {
		t.Fatalf("FilesCDC disagree: server %d client %d", srv.Costs.FilesCDC, res.Costs.FilesCDC)
	}
	if srv.Costs.CDCChunks == 0 {
		t.Fatalf("server CDC chunk count empty: %+v", srv.Costs)
	}
	mode := 0
	for _, e := range ring.Events() {
		if e.Mode == "cdc" {
			mode++
		}
	}
	if mode == 0 {
		t.Fatalf("no trace event carries mode=cdc among %d events", ring.Total())
	}

	// The same pair without the extension must account zero CDC work.
	legacy, legacyCosts := runSession(t, v2.Map(), v1.Map(), core.DefaultConfig())
	if legacy.Costs.FilesCDC != 0 || legacy.Costs.CDCChunks != 0 || legacyCosts.FilesCDC != 0 {
		t.Fatalf("legacy session accounted CDC work: client %+v server %+v", legacy.Costs, legacyCosts)
	}
}

// TestCDCModeUnusableDegrades: a server that cannot validate the requested
// mode (here: one it has never heard of) refuses the grant and the session
// completes in halving mode instead of failing — noted on each end's
// handshake span and logged once by each.
func TestCDCModeUnusableDegrades(t *testing.T) {
	v1, v2 := corpus.DefaultHeavyLogProfile(0.15).Generate(11)
	ring, cliRing := obs.NewRing(256), obs.NewRing(256)
	var log, cliLog bytes.Buffer
	res, srvCosts := pipeSession(t, v2.Map(), v1.Map(), core.DefaultConfig(), 1, func(s *Server, c *Client) {
		c.MapMode = core.MapMode(7)
		s.Tracer, s.Logger = ring, slog.New(slog.NewTextHandler(&log, nil))
		c.Tracer, c.Logger = cliRing, slog.New(slog.NewTextHandler(&cliLog, nil))
	})
	if err := VerifyAgainst(res.Files, v2.Map()); err != nil {
		t.Fatalf("degraded session diverged: %v", err)
	}
	if res.Costs.FilesCDC != 0 || res.Costs.CDCChunks != 0 || srvCosts.FilesCDC != 0 {
		t.Fatalf("refused CDC grant still accounted CDC work: client %+v server %+v", res.Costs, srvCosts)
	}
	noted := 0
	for _, e := range ring.Events() {
		if e.Side == "server" && e.Phase == obs.PhaseHandshake && strings.Contains(e.Note, "map_mode_refused:unknown_mode") {
			noted++
		}
	}
	if noted != 1 || strings.Count(log.String(), "msync: map mode refused") != 1 || !strings.Contains(log.String(), "reason=unknown_mode") {
		t.Fatalf("%d handshake spans note the refusal, log:\n%s\nwant one note and one log line", noted, &log)
	}
	noted = 0
	for _, e := range cliRing.Events() {
		if e.Side == "client" && e.Phase == obs.PhaseHandshake && strings.Contains(e.Note, "map_mode_not_granted") {
			noted++
		}
	}
	if noted != 1 || strings.Count(cliLog.String(), "msync: map mode not granted") != 1 || !strings.Contains(cliLog.String(), "mode=7 granted=0") {
		t.Fatalf("%d client handshake spans note the missing grant, log:\n%s\nwant one note and one log line", noted, &cliLog)
	}
}

// TestConfigRoundTripMapMode: the mode rides as an optional trailing config
// field — absent (and byte-identical to the legacy encoding) for halving. A
// granted whole-content stream is a second one after it, which then comes
// for halving too: one byte more with CDC, two with halving; any value but 1
// is refused.
func TestConfigRoundTripMapMode(t *testing.T) {
	halving := core.DefaultConfig()
	cdc := core.DefaultConfig()
	cdc.MapMode = core.MapCDC

	got, g, err := decodeConfig(encodeConfig(&cdc, grantNone))
	if err != nil || g != grantNone {
		t.Fatal(err, g)
	}
	if got.MapMode != core.MapCDC {
		t.Fatalf("MapMode lost in round trip: %+v", got)
	}
	h := encodeConfig(&halving, grantNone)
	for _, c := range []struct {
		raw  []byte
		grow int
	}{
		{encodeConfig(&cdc, grantNone), 1},
		{encodeConfig(&cdc, grantStream), 2},
		{encodeConfig(&cdc, grantDeltaStream), 3},
		{encodeConfig(&halving, grantStream), 2},
		{encodeConfig(&halving, grantDeltaStream), 3},
	} {
		if len(c.raw) != len(h)+c.grow {
			t.Fatalf("config of %d bytes, want %d trailing bytes after the %d-byte legacy one", len(c.raw), c.grow, len(h))
		}
		if string(c.raw[:len(h)]) != string(h) {
			t.Fatalf("trailing fields changed the legacy prefix")
		}
	}
	bad := append(encodeConfig(&halving, grantStream), 0)
	bad[len(bad)-2] = 2
	if _, _, err := decodeConfig(bad[:len(bad)-1]); !errors.Is(err, core.ErrProtocol) {
		t.Fatalf("a stream grant of 2: %v, want core.ErrProtocol", err)
	}
}
