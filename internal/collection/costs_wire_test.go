package collection

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/md4"
	"msync/internal/obs"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// wireFrame is one frame of a recorded transcript direction.
type wireFrame struct {
	typ     byte
	payload []byte
}

// size is the frame's cost on the wire, header included.
func (f wireFrame) size() int { return len(f.payload) + frameOverhead(len(f.payload)) }

// transcriptFrames splits one recorded direction into its frames.
func transcriptFrames(t *testing.T, raw []byte) []wireFrame {
	t.Helper()
	fr := wire.NewFrameReader(bytes.NewReader(raw))
	var out []wireFrame
	for {
		typ, payload, err := fr.ReadFrame()
		if err != nil {
			if n, total := fr.Counts(); total != int64(len(raw)) {
				t.Fatalf("transcript: %v after %d frames, %d of %d bytes", err, n, total, len(raw))
			}
			return out
		}
		out = append(out, wireFrame{typ, payload})
	}
}

// fullFrameBytes sums the wire cost of the FULL frames in one direction: bare
// FULL frames, and STREAM frames wrapping one.
func fullFrameBytes(t *testing.T, raw []byte) int64 {
	t.Helper()
	var n int64
	for _, f := range transcriptFrames(t, raw) {
		switch f.typ {
		case wire.FrameFull:
			n += int64(f.size())
		case wire.FrameStream:
			sf, err := wire.ParseStreamFrame(f.payload, wire.MaxStreams)
			if err != nil {
				t.Fatal(err)
			}
			if sf.Type == wire.FrameFull {
				n += int64(f.size())
			}
		}
	}
	return n
}

// costTrees is a small collection whose sessions cross the frame-length
// boundaries the accounting has to get right: edited files, deletions, and
// new and rewritten files of incompressible content large enough that the
// verdict frame carrying them needs a longer length varint than its control
// remainder would.
func costTrees() (v1, v2 map[string][]byte) {
	t1, t2 := corpus.GCCProfile(0.06).Generate(17)
	v1, v2 = t1.Map(), t2.Map()
	rng := rand.New(rand.NewSource(18))
	v2["new/blob-a.bin"] = corpus.RandomText(rng, 20_000)
	v2["new/blob-b.bin"] = corpus.RandomText(rng, 3_000)
	v1["rewritten.bin"] = corpus.RandomText(rng, 18_000)
	v2["rewritten.bin"] = corpus.RandomText(rng, 18_000)
	return v1, v2
}

// tableTrees30 is tableTrees(2000, 30): a table session that peels.
func tableTrees30() (v1, v2 map[string][]byte) { return tableTrees(2000, 30) }

// misstated is a source whose list misstates its first file's sum.
type misstated struct{ Source }

func (m misstated) Manifest() ([]ManifestEntry, error) {
	list, err := m.Source.Manifest()
	if err == nil {
		list = slices.Clone(list)
		list[0].Sum[0] ^= 1
	}
	return list, err
}

// TestCostsTotalEqualsWireBytes: Costs.Total() on both sides is exactly the
// number of bytes that crossed the connection, in every session shape. One
// byte went missing per session whenever a verdict frame's split attribution
// (control / full / delta) took the framing of the control share instead of
// the frame's.
//
// The fallback rows run hashes weak enough (weakConfig) that whole-file checks
// fail: the ACK → FULL path, whose bytes and roundtrips must be accounted the
// same way under both framings, and which the receiver notes once.
func TestCostsTotalEqualsWireBytes(t *testing.T) {
	oneFile := func() (v1, v2 map[string][]byte) {
		return map[string][]byte{"a.txt": []byte("old")}, map[string][]byte{"a.txt": []byte("new")}
	}
	shapes := []struct {
		name string
		tune func(*Server, *Client)
		weak bool
		base uint64 // nonzero: a store-backed server (versions 1 and 2), a client announcing this one
		// trees replaces costTrees (weak shapes: tinyTrees(12)).
		trees func() (v1, v2 map[string][]byte)
	}{
		{"lockstep", func(*Server, *Client) {}, false, 0, nil},
		{"mux", func(s *Server, c *Client) { s.MuxStreams, c.MuxStreams = 16, 16 }, false, 0, nil},
		{"tree", func(_ *Server, c *Client) {
			c.TreeManifest, c.SpeculativeDescent, c.CrossFileMatch = true, true, true
		}, false, 0, nil},
		{"tree+mux", func(s *Server, c *Client) {
			c.TreeManifest, c.SpeculativeDescent, c.CrossFileMatch = true, true, true
			s.MuxStreams, c.MuxStreams = 16, 16
		}, false, 0, nil},
		{"cdc", func(_ *Server, c *Client) { c.MapMode = core.MapCDC }, false, 0, nil},
		{"fallback", func(*Server, *Client) {}, true, 0, nil},
		{"fallback+mux", func(s *Server, c *Client) { s.MuxStreams, c.MuxStreams = 4, 4 }, true, 0, nil},
		// Announced by reference: a hit; a miss that grants streams (WANT,
		// MANIFEST_SHORT, MUX_ACK, VERDICTS); a miss on a server without a
		// store.
		{"journal", func(*Server, *Client) {}, false, 1, nil},
		{"journal-miss+mux", func(s *Server, c *Client) { s.MuxStreams, c.MuxStreams = 4, 4 }, false, 99, nil},
		{"announce-storeless", func(_ *Server, c *Client) { c.AnnounceVersion, c.BaseVersion = true, 3 }, false, 0, nil},
		// A manifest too short to pack: MANIFEST, as ever.
		{"one-file", func(*Server, *Client) {}, false, 0, oneFile},
		// A list past tableMin: MANIFEST_TABLE; one that does not peel
		// (MANIFEST_WANT, then MANIFEST_SHORT); and one answered by a holder
		// whose list misstates a file's sum, so that its list digest is not
		// the synced list's: the client fails with ErrListMismatch.
		{"table", func(*Server, *Client) {}, false, 0, tableTrees30},
		{"table-peel-failed", func(*Server, *Client) {}, false, 0, func() (v1, v2 map[string][]byte) { return tableTrees(2000, 300) }},
		{"table-list-mismatch", func(s *Server, _ *Client) { s.src = misstated{s.src} }, false, 0, tableTrees30},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			v1, v2 := costTrees()
			cfg := core.DefaultConfig()
			if sh.weak {
				v1, v2 = tinyTrees(12)
				cfg = weakConfig()
			}
			if sh.trees != nil {
				v1, v2 = sh.trees()
			}
			var srv *Server
			cli := NewClient(v1)
			if sh.base > 0 {
				srv = versionedServer(t, v1, v2, cfg)
				cli.AnnounceVersion, cli.BaseVersion = true, sh.base
			} else {
				var err error
				if srv, err = NewServer(v2, cfg); err != nil {
					t.Fatal(err)
				}
			}
			sh.tune(srv, cli)

			ring := obs.NewRing(1024)
			cli.Tracer = ring
			a, b := transport.Pipe()
			rec := &recordConn{rw: b}
			var wg sync.WaitGroup
			wg.Add(1)
			var serverCosts *stats.Costs
			var serverErr error
			go func() {
				defer wg.Done()
				defer a.Close()
				serverCosts, serverErr = srv.Serve(a)
			}()
			res, err := cli.Sync(rec)
			b.Close()
			wg.Wait()
			if sh.name == "table-list-mismatch" {
				if !errors.Is(err, ErrListMismatch) || res != nil || serverErr != nil {
					t.Fatalf("client: %v with result %v, server: %v; want ErrListMismatch and no result", err, res, serverErr)
				}
				if got, carried := serverCosts.Total(), int64(rec.c2s.Len()+rec.s2c.Len()); got != carried {
					t.Errorf("server Costs.Total() = %d, the connection carried %d", got, carried)
				}
				return
			}
			if err != nil || serverErr != nil {
				t.Fatalf("client: %v, server: %v", err, serverErr)
			}
			if err := VerifyAgainst(res.Files, v2); err != nil {
				t.Fatal(err)
			}
			if sh.name == "journal" && res.Costs.FilesJournal == 0 {
				t.Fatal("the journal shape did not take the journal path")
			}
			up := transcriptFrames(t, rec.c2s.Bytes())
			if cli.AnnounceVersion {
				asked := transcriptFrames(t, rec.s2c.Bytes())[0].typ == wire.FrameManifestWant
				if up[1].typ != wire.FrameManifestRef || asked != (serverCosts.JournalMisses == 1) {
					t.Fatalf("an announcing session opens with MANIFEST_REF (sent %s) and is asked for the manifest exactly when it misses (asked %v, %d misses)",
						wire.FrameName(up[1].typ), asked, serverCosts.JournalMisses)
				}
				if asked {
					up = up[1:] // the manifest follows the REF
				}
			}
			if !cli.TreeManifest {
				// The manifest goes as MANIFEST_SHORT — MANIFEST when
				// packing does not pay — and the handshake span says which,
				// with the three encodings' sizes; a REF hit sends none, so
				// notes none.
				m := BuildManifest(v1)
				short, _ := packManifest(m, shortSum)
				packed, _ := packManifest(m, md4.Size)
				legacy := encodeManifest(m)
				want := wire.FrameManifestShort
				switch {
				case len(short) >= tableMin:
					want = wire.FrameManifestTable
				case sh.trees != nil:
					want = wire.FrameManifest
				}
				sent := !cli.AnnounceVersion || serverCosts.JournalHits == 0
				if sent && (up[1].typ != want || len(up[1].payload) > len(legacy)) {
					t.Fatalf("the manifest went as %s of %d bytes, want %s of at most %d", wire.FrameName(up[1].typ), len(up[1].payload), wire.FrameName(want), len(legacy))
				}
				sizes := fmt.Sprintf("short %d, packed %d, legacy %d", len(short), len(packed), len(legacy))
				note, noted := fmt.Sprintf("%s: %s", wire.FrameName(want), sizes), false
				if serverCosts.TablePeelsFailed == 1 && res.Costs.TablePeelsFailed == 1 {
					note += "; table_peel_failed; MANIFEST_SHORT: " + sizes // noted once, with the answer to the WANT
				}
				for _, e := range ring.Events() {
					noted = noted || (e.Phase == obs.PhaseHandshake && e.Note == note)
				}
				if noted != sent {
					t.Fatalf("a handshake span notes %q: %v, want %v", note, noted, sent)
				}
			}
			carried := int64(rec.c2s.Len() + rec.s2c.Len())
			if got := res.Costs.Total(); got != carried {
				t.Errorf("client Costs.Total() = %d, the connection carried %d", got, carried)
			}
			if got := serverCosts.Total(); got != carried {
				t.Errorf("server Costs.Total() = %d, the connection carried %d", got, carried)
			}
			if res.Costs.Roundtrips != serverCosts.Roundtrips {
				t.Errorf("roundtrips: client %d, server %d", res.Costs.Roundtrips, serverCosts.Roundtrips)
			}
			if !sh.weak {
				return
			}
			// tinyTrees has no new and no small files, so every full
			// transfer here is a fallback and every PhaseFull byte a FULL
			// frame's.
			if res.Costs.FilesFull == 0 || res.Costs.FilesFull == len(v2) {
				t.Fatalf("%d of %d files fell back; the seed should fail some and pass some", res.Costs.FilesFull, len(v2))
			}
			if serverCosts.FilesFull != res.Costs.FilesFull {
				t.Errorf("FilesFull: client %d, server %d", res.Costs.FilesFull, serverCosts.FilesFull)
			}
			// Each of them failed its whole-file check: the receiver's trace
			// says so once, with the count.
			note, noted := fmt.Sprintf("whole_file_check_failed:%d", res.Costs.FilesFull), 0
			for _, e := range ring.Events() {
				noted += strings.Count(e.Note, note)
			}
			if noted != 1 {
				t.Errorf("the receiver's spans note %q %d times, want once", note, noted)
			}
			full := fullFrameBytes(t, rec.s2c.Bytes())
			// An unwrapped session reports the fallback as one full span
			// holding exactly the FULL frame; wrapped streams report theirs
			// in their stream spans.
			var spanned int64
			for _, e := range ring.Events() {
				if e.Phase == obs.PhaseFull {
					spanned += e.BytesDown
				}
			}
			want := full
			if cli.MuxStreams > 0 {
				want = 0
			}
			if spanned != want {
				t.Errorf("full spans carry %d bytes, want %d", spanned, want)
			}
			for side, c := range map[string]*stats.Costs{"client": res.Costs, "server": serverCosts} {
				if got := c.Bytes(stats.S2C, stats.PhaseFull); got != full {
					t.Errorf("%s PhaseFull = %d bytes, the FULL frames carried %d", side, got, full)
				}
			}
		})
	}
}
