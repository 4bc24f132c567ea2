package bench

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"strings"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/stats"
	"msync/internal/store"
	"msync/internal/transport"
	"msync/internal/wire"
)

// churnTrees is a collection of n small text files and its next version, in
// which every hundredth file has grown by a line: the shape of the
// benchmark's journal_live step (1 % churn), at any size.
func churnTrees(n int) (v1, v2 map[string][]byte) {
	v1, v2 = make(map[string][]byte, n), make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("src/d%03d/file%05d.txt", i/100, i)
		data := []byte(strings.Repeat(fmt.Sprintf("line of file %d\n", i), 20+i%40))
		v1[path], v2[path] = data, data
		if i%100 == 0 {
			v2[path] = append(append([]byte{}, data...), "one more line\n"...)
		}
	}
	return v1, v2
}

// storeServer serves v2 from a store under dir that holds v1 as version 1 and
// v2 as version 2; the caller closes the store.
func storeServer(dir string, v1, v2 map[string][]byte) (srv *collection.Server, st *store.Store) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		panic(err)
	}
	for _, tree := range []map[string][]byte{v1, v2} {
		srv, err = collection.NewServerSource(collection.NewStoreSource(collection.MapSource(tree), st), core.DefaultConfig())
		if err == nil {
			_, err = srv.Snapshot()
		}
		if err != nil {
			panic(err)
		}
	}
	return srv, st
}

// fullSumsCosts is the flat session of a receiver from before MANIFEST_SHORT:
// what today's receiver sends to srv, recorded, with its MANIFEST_SHORT widened
// back to MANIFEST_PACKED — the same column, each file's full 16-byte sum from
// v1's manifest — and replayed to srv, which answers without group sums. The
// server's costs are the session's: the replay up, its answer down.
func fullSumsCosts(srv *collection.Server, v1, v2 map[string][]byte) stats.Costs {
	var up bytes.Buffer
	a, b := transport.Pipe()
	done := make(chan error, 1)
	go func() {
		defer a.Close()
		_, err := srv.Serve(a)
		done <- err
	}()
	_, err := collection.NewClient(v1).Sync(struct {
		io.Reader
		io.Writer
	}{b, io.MultiWriter(b, &up)})
	b.Close()
	if err = cmp.Or(err, <-done); err != nil {
		panic(fmt.Sprintf("bench: recorded flat session: %v", err))
	}
	fr := wire.NewFrameReader(&up)
	var replay bytes.Buffer
	fw := wire.NewFrameWriter(&replay)
	for {
		ft, payload, err := fr.ReadFrame()
		if err == io.EOF {
			break
		} else if err != nil {
			panic(err)
		}
		if ft == wire.FrameManifestShort {
			p := wire.NewParser(payload)
			n, _ := p.Uvarint()
			col, err := p.Bytes()
			if err != nil {
				panic(err)
			}
			b := wire.NewBuffer(len(payload) + 16*int(n))
			b.Uvarint(n)
			b.Bytes(col)
			for _, e := range collection.BuildManifest(v1) {
				b.Raw(e.Sum[:])
			}
			ft, payload = wire.FrameManifestPacked, b.Build()
		}
		if err := fw.WriteFrame(ft, payload); err != nil {
			panic(err)
		}
	}
	if err := fw.Flush(); err != nil {
		panic(err)
	}
	c, err := srv.Serve(struct {
		io.Reader
		io.Writer
	}{&replay, io.Discard})
	if err != nil {
		panic(fmt.Sprintf("bench: replayed full-sums session: %v", err))
	}
	return *c
}

// AblateDetect prices change detection on a repeat sync of a collection at
// 1 % churn, on the paper's DSL link: the flat manifest — its sums whole
// (MANIFEST_PACKED, a receiver from before MANIFEST_SHORT, replayed) or cut
// to 3 bytes and group-tested (MANIFEST_SHORT, today's) — against naming the
// manifest by its digest (a client that announces a stored version above 0),
// when the server's store holds that version, when it does not, and when the
// server has no store. The first arms of ROADMAP item 8's grid.
func AblateDetect(opts Options) *Table {
	t := &Table{
		Title:   "Ablation — change detection on a repeat sync: flat manifest (full or group-tested sums) vs manifest by reference",
		Columns: []string{"c2s B", "s2c B", "rtrips", "DSL ms"},
	}
	dsl := links[0].l
	for _, files := range []int{200, 2026, 20000} {
		files = maxI(50, int(float64(files)*opts.Scale))
		v1, v2 := churnTrees(files)
		dir, err := os.MkdirTemp("", "msbench-store-")
		if err != nil {
			panic(err)
		}
		versioned, st := storeServer(dir, v1, v2)
		plain, err := collection.NewServer(v2, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		row := func(name string, c stats.Costs) {
			t.Rows = append(t.Rows, Row{
				Name: fmt.Sprintf("%d: %s", files, name),
				Values: []float64{
					float64(c.DirTotal(stats.C2S)), float64(c.DirTotal(stats.S2C)),
					float64(c.Roundtrips), float64(dsl.Duration(&c).Microseconds()) / 1000,
				},
			})
		}
		row("flat, full sums", fullSumsCosts(plain, v1, v2))
		for _, arm := range []struct {
			name     string
			srv      *collection.Server
			announce bool
			base     uint64
		}{
			{"flat, group-tested sums", plain, false, 0},
			{"ref hit", versioned, true, 1},
			{"ref miss (unknown version)", versioned, true, 99},
			{"ref miss (no store)", plain, true, 1},
		} {
			row(arm.name, sessionCosts(arm.srv, v1, v2, func(cli *collection.Client) {
				cli.AnnounceVersion, cli.BaseVersion = arm.announce, arm.base
			}))
		}
		st.Close()
		os.RemoveAll(dir)
	}
	t.Notes = append(t.Notes,
		"rows are files: arm; ref is a client announcing a stored version above 0, which sends MANIFEST_REF",
		"full sums: MANIFEST_PACKED, 16 bytes a file up; group-tested: MANIFEST_SHORT, 3 bytes a file up and one 16-byte MD4 per 64 unchanged files down",
		"a hit sends the hello, the 16-byte MANIFEST_REF and two empty frames up, whatever the collection's size",
		"a miss is the group-tested flat session plus the version in hello and verdicts, the REF, the empty MANIFEST_WANT and one roundtrip")
	return t
}
