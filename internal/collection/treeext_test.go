package collection

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"msync/internal/core"
	"msync/internal/corpus"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// ungranted wraps a pulling client's end of a connection so the holder reads
// its HELLO with the tree capability mask (hello extension 3) zeroed. The
// extension keeps its length, so both ends count the same bytes, but the
// holder grants nothing, as one that predates the extension: no TREE_ACK, the
// one-level descent and no cross-file matching.
type ungranted struct {
	io.ReadWriter
	sent, zeroed bool
}

func (u *ungranted) Write(p []byte) (int, error) {
	if !u.sent {
		u.sent = true
		p, u.zeroed = zeroTreeCaps(p)
	}
	return u.ReadWriter.Write(p)
}

// zeroTreeCaps returns a copy of buf, which opens with a HELLO frame, with the
// hello's tree capability mask set to 0, and whether it found the mask.
func zeroTreeCaps(buf []byte) ([]byte, bool) {
	out := slices.Clone(buf)
	fp := wire.NewParser(out)
	if typ, err := fp.Byte(); err != nil || typ != wire.FrameHello {
		return out, false
	}
	hello, err := fp.Bytes()
	if err != nil {
		return out, false
	}
	hp := wire.NewParser(hello)
	hp.Uvarint() // protocol version
	hp.Raw(2)    // role, mode
	n, _ := hp.Uvarint()
	for range n {
		id, _ := hp.Uvarint()
		v, err := hp.Bytes()
		if err != nil {
			return out, false
		}
		if id == helloExtTree && len(v) == 1 {
			v[0] = 0 // aliases out
			return out, true
		}
	}
	return out, false
}

// syncGranted runs cli's pull over conn; without grant, as against a holder
// that grants no tree capability.
func syncGranted(t *testing.T, cli *Client, conn io.ReadWriter, grant bool) (*Result, error) {
	t.Helper()
	if grant {
		return cli.Sync(conn)
	}
	u := &ungranted{ReadWriter: conn}
	res, err := cli.Sync(u)
	if err == nil && !u.zeroed {
		t.Fatal("the client's HELLO asked for no tree capability")
	}
	return res, err
}

// extSession runs one tree-mode sync with the given client configuration
// and returns both sides' costs. Without grant the holder reads a HELLO
// asking for no tree capability (ungranted).
func extSession(t *testing.T, serverFiles, clientFiles map[string][]byte, grant bool, tune func(*Client)) (*Result, *stats.Costs, *stats.Costs) {
	t.Helper()
	srv, err := NewServer(serverFiles, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	var serverCosts *stats.Costs
	var serverErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		serverCosts, serverErr = srv.Serve(a)
	}()
	cli := NewClient(clientFiles)
	cli.TreeManifest = true
	if tune != nil {
		tune(cli)
	}
	res, err := syncGranted(t, cli, b, grant)
	b.Close()
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if serverErr != nil {
		t.Fatalf("server: %v", serverErr)
	}
	if res.Costs.Total() != serverCosts.Total() {
		t.Fatalf("cost disagreement: client %d vs server %d", res.Costs.Total(), serverCosts.Total())
	}
	return res, res.Costs, serverCosts
}

// TestCrossFileRename: a pure rename (same content, new path) must be
// materialized by a local copy, with zero content bytes on the wire.
func TestCrossFileRename(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	moved := corpus.RandomText(rng, 50_000) // incompressible: a full send would show
	keep := corpus.SourceText(rng, 2_000)
	serverFiles := map[string][]byte{"docs/renamed.bin": moved, "keep": keep}
	clientFiles := map[string][]byte{"docs/original.bin": moved, "keep": keep}

	res, cc, sc := extSession(t, serverFiles, clientFiles, true, nil)
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if cc.FilesRenamed != 1 {
		t.Fatalf("FilesRenamed = %d, want 1", cc.FilesRenamed)
	}
	if cc.RenameBytesSaved != int64(len(moved)) {
		t.Fatalf("RenameBytesSaved = %d, want %d", cc.RenameBytesSaved, len(moved))
	}
	if got := cc.PhaseTotal(stats.PhaseFull) + cc.PhaseTotal(stats.PhaseDelta); got > 64 {
		t.Fatalf("rename moved %d content bytes; want ~0", got)
	}
	if cc.Total() > 2_000 {
		t.Fatalf("rename session cost %d bytes for a %d-byte file", cc.Total(), len(moved))
	}
	_ = sc
	t.Logf("pure rename of %d bytes cost %d wire bytes", len(moved), cc.Total())
}

// TestCrossFileRenameDisabled: the same workload against a holder that grants
// no extension pays the full transfer — the control arm for
// TestCrossFileRename.
func TestCrossFileRenameDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	moved := corpus.RandomText(rng, 50_000)
	serverFiles := map[string][]byte{"docs/renamed.bin": moved}
	clientFiles := map[string][]byte{"docs/original.bin": moved}

	res, cc, _ := extSession(t, serverFiles, clientFiles, false, nil)
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if cc.FilesRenamed != 0 {
		t.Fatalf("FilesRenamed = %d without the extension", cc.FilesRenamed)
	}
	if cc.Total() < int64(len(moved)) {
		t.Fatalf("expected a full transfer without cross-file matching, got %d bytes", cc.Total())
	}
}

// TestCrossFileAltBasis: a moved-and-edited file must sync against its old
// path as an alternate basis, costing a small delta instead of a full send.
func TestCrossFileAltBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	orig := corpus.SourceText(rng, 40_000)
	em := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 3, EditSize: 40, BurstSpread: 300}
	edited := em.Apply(rng, orig)
	serverFiles := map[string][]byte{"src/lib/engine.go": edited}
	clientFiles := map[string][]byte{"src/engine.go": orig}

	res, cc, sc := extSession(t, serverFiles, clientFiles, true, nil)
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if cc.FilesRebased != 1 {
		t.Fatalf("client FilesRebased = %d, want 1", cc.FilesRebased)
	}
	if sc.FilesRebased != 1 {
		t.Fatalf("server FilesRebased = %d, want 1", sc.FilesRebased)
	}

	// Control arm: from a holder that grants no extension the file arrives
	// whole.
	_, flat, _ := extSession(t, serverFiles, clientFiles, false, nil)
	if cc.Total()*2 > flat.Total() {
		t.Fatalf("alt-basis sync cost %d, full transfer %d: no win", cc.Total(), flat.Total())
	}
	t.Logf("moved-and-edited %d bytes: alt-basis %d vs full %d wire bytes",
		len(edited), cc.Total(), flat.Total())

	// CDC arm: a rebased file and a same-path edit are two CDC files on
	// both ends, whatever basis each syncs against.
	serverFiles["src/keep.go"] = em.Apply(rng, orig)
	clientFiles["src/keep.go"] = orig
	res, cc, sc = extSession(t, serverFiles, clientFiles, true, func(c *Client) {
		c.MapMode = core.MapCDC
	})
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if cc.FilesRebased != 1 || cc.FilesCDC != 2 || sc.FilesCDC != cc.FilesCDC {
		t.Fatalf("CDC arm: client FilesRebased %d, FilesCDC %d; server FilesCDC %d; want 1, 2, 2",
			cc.FilesRebased, cc.FilesCDC, sc.FilesCDC)
	}
}

// TestCrossFileAltBasisPrefersRelated: with several orphans available the
// engine must still converge and pick a working basis (the junk orphan
// cannot break correctness).
func TestCrossFileAltBasisPrefersRelated(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	orig := corpus.SourceText(rng, 32_000)
	junk := corpus.RandomText(rng, 32_000)
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 3, EditSize: 30, BurstSpread: 200}
	edited := em.Apply(rng, orig)
	serverFiles := map[string][]byte{"pkg/engine.go": edited}
	clientFiles := map[string][]byte{"old/engine.go": orig, "old/junk.bin": junk}

	res, cc, _ := extSession(t, serverFiles, clientFiles, true, nil)
	if err := VerifyAgainst(res.Files, serverFiles); err != nil {
		t.Fatal(err)
	}
	if cc.FilesRebased != 1 {
		t.Fatalf("FilesRebased = %d, want 1", cc.FilesRebased)
	}
	// A related basis keeps the delta small; picking the junk one would
	// cost roughly the whole file.
	if cc.Total() > int64(len(edited))/2 {
		t.Fatalf("alt-basis race cost %d bytes for a %d-byte file", cc.Total(), len(edited))
	}
}

// TestSpeculativeDescentFewerRounds: speculative descent must reach the
// same outcome in fewer descent roundtrips than the one-level descent a
// holder that grants nothing answers.
func TestSpeculativeDescentFewerRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := map[string][]byte{}
	for i := 0; i < 2000; i++ {
		files[fmt.Sprintf("src/%02d/f%04d.go", i%37, i)] = corpus.SourceText(rng, 400)
	}
	serverFiles := make(map[string][]byte, len(files))
	for k, v := range files {
		serverFiles[k] = v
	}
	serverFiles["src/03/f0123.go"] = corpus.SourceText(rng, 900)
	serverFiles["src/19/f1040.go"] = corpus.SourceText(rng, 900)
	serverFiles["src/11/new.go"] = corpus.SourceText(rng, 700)

	resLegacy, legacy, _ := extSession(t, serverFiles, files, false, nil)
	resSpec, spec, specSrv := extSession(t, serverFiles, files, true, nil)
	for _, r := range []*Result{resLegacy, resSpec} {
		if err := VerifyAgainst(r.Files, serverFiles); err != nil {
			t.Fatal(err)
		}
	}
	if legacy.TreeRounds == 0 || spec.TreeRounds == 0 {
		t.Fatalf("TreeRounds not counted: legacy %d, spec %d", legacy.TreeRounds, spec.TreeRounds)
	}
	if spec.TreeRounds >= legacy.TreeRounds {
		t.Fatalf("speculative descent used %d rounds, legacy %d", spec.TreeRounds, legacy.TreeRounds)
	}
	if spec.TreeRounds != specSrv.TreeRounds {
		t.Fatalf("descent round disagreement: client %d, server %d", spec.TreeRounds, specSrv.TreeRounds)
	}
	t.Logf("descent rounds: legacy %d, speculative %d", legacy.TreeRounds, spec.TreeRounds)
}

// TestTreeExtWorkerInvariance: the wire bytes of a session with both
// extensions must be identical for every worker count — alternate-basis
// racing happens locally and deterministically.
func TestTreeExtWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	orig := corpus.SourceText(rng, 30_000)
	em := corpus.EditModel{BurstsPer32KB: 3, BurstEdits: 2, EditSize: 50, BurstSpread: 400}
	serverFiles := map[string][]byte{
		"a/moved.txt": em.Apply(rng, orig),
		"same.bin":    corpus.RandomText(rng, 20_000),
		"edit.txt":    corpus.SourceText(rng, 15_000),
	}
	clientFiles := map[string][]byte{
		"b/moved.txt": orig,
		"rename.bin":  serverFiles["same.bin"],
		"edit.txt":    em.Apply(rng, serverFiles["edit.txt"]),
	}
	var base *stats.Costs
	for _, workers := range []int{1, 8} {
		res, cc, _ := extSession(t, serverFiles, clientFiles, true, func(c *Client) {
			c.Workers = workers
		})
		if err := VerifyAgainst(res.Files, serverFiles); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = cc
			continue
		}
		for d := stats.Direction(0); d < 2; d++ {
			for p := stats.Phase(0); p < 4; p++ {
				if cc.Bytes(d, p) != base.Bytes(d, p) {
					t.Fatalf("workers=%d: %s/%s bytes %d != %d",
						workers, d, p, cc.Bytes(d, p), base.Bytes(d, p))
				}
			}
		}
	}
}

// TestTreeInteropMatrix pins how tree mode composes with the version
// announcement and with a client from before stream multiplexing was retired
// (mux=4: its HELLO asks for 4 streams, which the holder ignores), against a
// holder that grants the tree capabilities and one that grants none
// (ext=false): every combination converges, both ends account every byte but
// the ignored extension's, which only the holder read, and the version
// trailer is a flat-manifest feature — tree sessions never report one.
func TestTreeInteropMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	files := map[string][]byte{}
	for i := 0; i < 60; i++ {
		files[fmt.Sprintf("d/%02d.txt", i)] = corpus.SourceText(rng, 4_000)
	}
	serverFiles := make(map[string][]byte, len(files))
	for k, v := range files {
		serverFiles[k] = v
	}
	em := corpus.EditModel{BurstsPer32KB: 2, BurstEdits: 2, EditSize: 40, BurstSpread: 200}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("d/%02d.txt", i*7)
		serverFiles[p] = em.Apply(rng, serverFiles[p])
	}

	for _, announce := range []bool{false, true} {
		for _, mux := range []int{0, 4} {
			for _, caps := range []bool{false, true} {
				name := fmt.Sprintf("announce=%v/mux=%d/ext=%v", announce, mux, caps)
				t.Run(name, func(t *testing.T) {
					srv, err := NewServer(serverFiles, core.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					a, b := transport.Pipe()
					var serverCosts *stats.Costs
					var serverErr error
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer a.Close()
						serverCosts, serverErr = srv.Serve(a)
					}()
					cli := NewClient(files)
					cli.TreeManifest = true
					cli.AnnounceVersion = announce
					conn := &muxHelloConn{ReadWriter: b, width: mux, sent: mux == 0}
					res, err := syncGranted(t, cli, conn, caps)
					b.Close()
					wg.Wait()
					if err != nil {
						t.Fatalf("client: %v", err)
					}
					if serverErr != nil {
						t.Fatalf("server: %v", serverErr)
					}
					if err := VerifyAgainst(res.Files, serverFiles); err != nil {
						t.Fatal(err)
					}
					if res.Costs.Total()+int64(conn.added) != serverCosts.Total() {
						t.Fatalf("cost disagreement: %d+%d vs %d", res.Costs.Total(), conn.added, serverCosts.Total())
					}
					// The journal/version trailer belongs to the flat
					// manifest; tree sessions never carry it.
					if res.Version != 0 {
						t.Fatalf("tree session reported version %d", res.Version)
					}
					if res.Costs.TreeRounds == 0 {
						t.Fatal("tree session counted no descent rounds")
					}
				})
			}
		}
	}
}

// TestTreeClientCacheReuse: one Client syncing repeatedly keeps its merkle
// trees across sessions (rebased from the manifest diff) — repeat syncs
// must stay correct as the collection evolves on both ends.
func TestTreeClientCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	files := map[string][]byte{}
	for i := 0; i < 300; i++ {
		files[fmt.Sprintf("f/%03d", i)] = corpus.SourceText(rng, 600)
	}
	cli := NewClient(files)
	cli.TreeManifest = true

	current := files
	for round := 0; round < 3; round++ {
		serverFiles := make(map[string][]byte, len(current))
		for k, v := range current {
			serverFiles[k] = v
		}
		serverFiles[fmt.Sprintf("f/%03d", round*3)] = corpus.SourceText(rng, 800)
		serverFiles[fmt.Sprintf("g/new%d", round)] = corpus.SourceText(rng, 500)

		srv, err := NewServer(serverFiles, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		a, b := transport.Pipe()
		var serverErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer a.Close()
			_, serverErr = srv.Serve(a)
		}()
		res, err := cli.Sync(b)
		b.Close()
		wg.Wait()
		if err != nil || serverErr != nil {
			t.Fatalf("round %d: client=%v server=%v", round, err, serverErr)
		}
		if err := VerifyAgainst(res.Files, serverFiles); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The next round's client state is the synced result.
		cli.src = MapSource(res.Files)
		current = serverFiles
	}
}
