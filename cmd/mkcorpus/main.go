// Command mkcorpus writes the synthetic experiment corpora to disk so the
// msync CLI (and outside tools) can be exercised on them.
//
//	mkcorpus -profile gcc -out /tmp/corpus          # writes v1/ and v2/
//	mkcorpus -profile web -days 0,2,7 -out /tmp/web # one dir per night
//	mkcorpus -profile dbdump -out /tmp/dump         # adversarial CDC corpus
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"

	"msync/internal/corpus"
	"msync/internal/dirio"
)

func main() {
	var (
		profile = flag.String("profile", "gcc", "corpus profile: gcc, emacs, web, rename, deep, logs, logs-heavy, dbdump, vmimage, binrelease")
		out     = flag.String("out", "corpus", "output directory")
		scale   = flag.Float64("scale", 1.0, "corpus scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		days    = flag.String("days", "0,1", "web profile: comma-separated nights to materialize")
	)
	flag.Parse()

	switch *profile {
	case "gcc", "emacs":
		p := corpus.GCCProfile(*scale)
		if *profile == "emacs" {
			p = corpus.EmacsProfile(*scale)
		}
		v1, v2 := p.Generate(*seed)
		mustWrite(filepath.Join(*out, "v1"), v1)
		mustWrite(filepath.Join(*out, "v2"), v2)
		fmt.Printf("wrote %s: v1 %d files (%d bytes), v2 %d files (%d bytes)\n",
			*out, len(v1.Files), v1.TotalBytes(), len(v2.Files), v2.TotalBytes())
	case "rename", "deep", "logs", "logs-heavy", "dbdump", "vmimage", "binrelease":
		var v1, v2 *corpus.Tree
		switch *profile {
		case "rename":
			v1, v2 = corpus.DefaultRenameProfile(*scale).Generate(*seed)
		case "deep":
			v1, v2 = corpus.DefaultDeepTreeProfile(*scale).Generate(*seed)
		case "logs":
			v1, v2 = corpus.DefaultLogAppendProfile(*scale).Generate(*seed)
		// The adversarial boundary-shift profiles behind the cdc.map
		// table (DESIGN.md §16); the fixed default seed keeps the written
		// corpora deterministic across runs and machines.
		case "logs-heavy":
			v1, v2 = corpus.DefaultHeavyLogProfile(*scale).Generate(*seed)
		case "dbdump":
			v1, v2 = corpus.DefaultDBDumpProfile(*scale).Generate(*seed)
		case "vmimage":
			v1, v2 = corpus.DefaultVMImageProfile(*scale).Generate(*seed)
		case "binrelease":
			v1, v2 = corpus.DefaultBinaryReleaseProfile(*scale).Generate(*seed)
		}
		mustWrite(filepath.Join(*out, "v1"), v1)
		mustWrite(filepath.Join(*out, "v2"), v2)
		fmt.Printf("wrote %s: v1 %d files (%d bytes), v2 %d files (%d bytes)\n",
			*out, len(v1.Files), v1.TotalBytes(), len(v2.Files), v2.TotalBytes())
	case "web":
		wc := corpus.NewWebCollection(corpus.DefaultWebProfile(*scale), *seed)
		for _, s := range strings.Split(*days, ",") {
			day, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				log.Fatalf("mkcorpus: bad day %q", s)
			}
			t := wc.Version(day)
			dir := filepath.Join(*out, fmt.Sprintf("night%02d", day))
			mustWrite(dir, t)
			fmt.Printf("wrote %s: %d pages (%d bytes)\n", dir, len(t.Files), t.TotalBytes())
		}
	default:
		log.Fatalf("mkcorpus: unknown profile %q", *profile)
	}
}

func mustWrite(dir string, t *corpus.Tree) {
	if err := dirio.Apply(dir, nil, t.Map()); err != nil {
		log.Fatal(err)
	}
}
