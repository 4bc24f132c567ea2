package msync_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"msync"
	"msync/internal/corpus"
)

// TestConcurrentSessions: one server, many clients with different outdated
// states synchronizing at once.
func TestConcurrentSessions(t *testing.T) {
	wc := corpus.NewWebCollection(corpus.DefaultWebProfile(0.05), 3)
	current := wc.Version(6).Map()
	srv, err := msync.NewServer(current, msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	const nClients = 8
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		day := i % 5
		wg.Add(1)
		go func(day, i int) {
			defer wg.Done()
			old := wc.Version(day).Map()
			serverEnd, clientEnd := msync.Pipe()
			go func() {
				defer serverEnd.Close()
				if _, err := srv.Serve(serverEnd); err != nil {
					errs <- fmt.Errorf("server session %d: %w", i, err)
				}
			}()
			var copts []msync.Option
			if i%2 == 1 {
				copts = append(copts, msync.WithTreeManifest())
			}
			cli := msync.NewClient(old, copts...)
			res, err := cli.Sync(clientEnd)
			clientEnd.Close()
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if err := corpus.VerifyAgainst(res.Files, current); err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
			}
		}(day, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRandomizedCollectionProperty: arbitrary collection mutations, random
// configurations and both manifest modes must always converge the client to
// the server state.
func TestRandomizedCollectionProperty(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(trial) * 977))
			nFiles := 3 + rng.Intn(25)
			serverFiles := map[string][]byte{}
			clientFiles := map[string][]byte{}
			for i := 0; i < nFiles; i++ {
				path := fmt.Sprintf("d%d/f%03d", i%3, i)
				size := 10 + rng.Intn(30_000)
				cur := corpus.SourceText(rng, size)
				serverFiles[path] = cur
				switch rng.Intn(5) {
				case 0: // client lacks it
				case 1: // identical
					clientFiles[path] = cur
				case 2: // heavily diverged
					clientFiles[path] = corpus.RandomText(rng, size/2+1)
				default: // lightly edited
					em := corpus.EditModel{BurstsPer32KB: 4, BurstEdits: 4, EditSize: 40, BurstSpread: 200}
					clientFiles[path] = em.Apply(rng, cur)
				}
			}
			// Some client-only files to delete.
			for i := 0; i < rng.Intn(4); i++ {
				clientFiles[fmt.Sprintf("stale/%d", i)] = corpus.SourceText(rng, 100+rng.Intn(1000))
			}

			cfg := msync.DefaultConfig()
			switch trial % 4 {
			case 1:
				cfg = msync.BasicConfig()
			case 2:
				cfg.Decomposable = false
			case 3:
				cfg = msync.OneShotConfig(512)
			}
			srv, err := msync.NewServer(serverFiles, cfg)
			if err != nil {
				t.Fatal(err)
			}
			serverEnd, clientEnd := msync.Pipe()
			var serveErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer serverEnd.Close()
				_, serveErr = srv.Serve(serverEnd)
			}()
			var copts []msync.Option
			if trial%2 == 0 {
				copts = append(copts, msync.WithTreeManifest())
			}
			cli := msync.NewClient(clientFiles, copts...)
			res, err := cli.Sync(clientEnd)
			clientEnd.Close()
			<-done
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			if serveErr != nil {
				t.Fatalf("server: %v", serveErr)
			}
			if err := corpus.VerifyAgainst(res.Files, serverFiles); err != nil {
				t.Fatal(err)
			}
		})
	}
}
