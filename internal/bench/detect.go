package bench

import (
	"bytes"
	"cmp"
	"context"
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
// benchmark's journal_live step (1 % churn), at any size. Like tiny_flat's,
// its paths spread over the directories and its lengths over a range, so its
// MANIFEST_SHORT takes about as many bytes a file (7.5 against 7.1).
func churnTrees(n int) (v1, v2 map[string][]byte) {
	v1, v2 = make(map[string][]byte, n), make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("src/d%02d/file%05d.txt", i%97, i)
		data := []byte(strings.Repeat(fmt.Sprintf("line of file %d\n", i), 10+i*37%90))
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

// frame is one recorded frame.
type frame struct {
	typ     byte
	payload []byte
}

// upFrames are the frames a client over v1 sends srv in one pull.
func upFrames(srv *collection.Server, v1 map[string][]byte) []frame {
	var up bytes.Buffer
	a, b := transport.Pipe()
	done := make(chan error, 1)
	go func() {
		defer a.Close()
		_, err := srv.ServeContext(context.Background(), a)
		done <- err
	}()
	cli := collection.NewClient(v1)
	_, err := cli.SyncContext(context.Background(), struct {
		io.Reader
		io.Writer
	}{b, io.MultiWriter(b, &up)})
	b.Close()
	if err = cmp.Or(err, <-done); err != nil {
		panic(fmt.Sprintf("bench: recorded flat session: %v", err))
	}
	var out []frame
	for fr := wire.NewFrameReader(&up); ; {
		typ, payload, err := fr.ReadFrame()
		if err == io.EOF {
			return out
		} else if err != nil {
			panic(err)
		}
		out = append(out, frame{typ, payload})
	}
}

// listCosts is the flat session of a receiver that sends its list as
// MANIFEST_SHORT (short) or MANIFEST_PACKED, whatever today's receiver sends:
// what a client sends to srv, recorded, with its list frame — the second —
// replaced by that one of v1's list, and replayed to srv. Today's receiver
// sends the MANIFEST_SHORT itself, or, where it sends a table, once a server
// over no files could not peel it; widening it to MANIFEST_PACKED keeps its
// column and gives each file its full sum from v1's list. The server's costs
// are the session's: the replay up, its answer down.
func listCosts(srv *collection.Server, v1 map[string][]byte, short bool) stats.Costs {
	up := upFrames(srv, v1)
	list := up[1]
	if list.typ != wire.FrameManifestShort {
		empty, err := collection.NewServer(nil, core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		list = upFrames(empty, v1)[2] // the table, then the list the WANT asked for
	}
	if !short {
		p := wire.NewParser(list.payload)
		n, _ := p.Uvarint()
		col, err := p.Bytes()
		if err != nil {
			panic(err)
		}
		b := wire.NewBuffer(len(list.payload) + 16*int(n))
		b.Uvarint(n)
		b.Bytes(col)
		for _, e := range collection.BuildManifest(v1) {
			b.Raw(e.Sum[:])
		}
		list = frame{wire.FrameManifestPacked, b.Build()}
	}
	var replay bytes.Buffer
	fw := wire.NewFrameWriter(&replay)
	for _, f := range append([]frame{up[0], list}, up[2:]...) {
		if err := fw.WriteFrame(f.typ, f.payload); err != nil {
			panic(err)
		}
	}
	if err := fw.Flush(); err != nil {
		panic(err)
	}
	c, err := srv.ServeContext(context.Background(), struct {
		io.Reader
		io.Writer
	}{&replay, io.Discard})
	if err != nil {
		panic(fmt.Sprintf("bench: replayed flat session: %v", err))
	}
	return *c
}

// AblateDetect prices change detection on a repeat sync of a collection at
// 1 % churn, on the paper's DSL link: the flat manifest — its sums whole
// (MANIFEST_PACKED, a receiver from before MANIFEST_SHORT, replayed), cut to 3
// bytes and group-tested (MANIFEST_SHORT, replayed where today's receiver
// sends a table) or reconciled as an invertible table (today's receiver,
// whose MANIFEST_SHORT stays where it is short) — against naming the
// manifest by its digest (a client that announces a stored version above 0),
// when the server's store holds that version, when it does not, and when the
// server has no store — and against tree mode's merkle descent, several
// levels a reply (speculative descent). ROADMAP item 8's grid.
func AblateDetect(opts Options) *Table {
	t := &Table{
		Title:   "Ablation — change detection on a repeat sync: flat manifest (full or group-tested sums, or a table) vs manifest by reference vs merkle tree",
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
		row("flat, full sums", listCosts(plain, v1, false))
		row("flat, group-tested sums", listCosts(plain, v1, true))
		announce := func(base uint64) func(*collection.Client) {
			return func(cli *collection.Client) { cli.AnnounceVersion, cli.BaseVersion = true, base }
		}
		for _, arm := range []struct {
			name string
			srv  *collection.Server
			tune func(*collection.Client)
		}{
			{"flat, table", plain, nil},
			{"ref hit", versioned, announce(1)},
			{"ref miss (unknown version)", versioned, announce(99)},
			{"ref miss (no store)", plain, announce(1)},
			{"tree + speculative descent", plain, func(cli *collection.Client) { cli.TreeManifest = true }},
		} {
			row(arm.name, sessionCosts(arm.srv, v1, v2, arm.tune))
		}
		st.Close()
		os.RemoveAll(dir)
	}
	t.Notes = append(t.Notes,
		"rows are files: arm; ref is a client announcing a stored version above 0, which sends MANIFEST_REF",
		"full sums: MANIFEST_PACKED, 16 bytes a file up; group-tested: MANIFEST_SHORT, 3 bytes a file up and one 16-byte MD4 per 64 unchanged files down",
		"table: MANIFEST_TABLE where MANIFEST_SHORT is 10 240 B or more and the table half of it or less, 19 bytes a cell at 2.5 cells an element of room for 2 % of the files changed; VERDICTS name the differing files and end with the list digest",
		"a hit sends the hello, the 16-byte MANIFEST_REF and two empty frames up, whatever the collection's size",
		"a miss is the group-tested flat session plus the version in hello and verdicts, the REF, the empty MANIFEST_WANT and one roundtrip",
		"tree: TREE queries up and replies down, several levels a reply (a tree pull always asks for speculative descent), then the WANT; its bytes follow the changed files times the tree's depth, not the collection")
	return t
}
