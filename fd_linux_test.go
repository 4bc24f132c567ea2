package msync_test

import (
	"os"
	"testing"

	"msync"
)

// openFDs counts the descriptors the process holds open.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("descriptors not listable: %v", err)
	}
	return len(ents)
}

// TestSessionsLeaveNoDescriptorOpen: a session reads a directory through one
// cursor, which holds a descriptor for each directory on the way to the file
// it read last, and closes it before its per-file phases. Twenty pulls of an
// edited copy from a directory server (the server loads the files it sends,
// each client the bases it syncs against), a push into a directory server
// (both ends load) and a store server's first snapshot (which loads every
// file) leave the process holding the descriptors it held before them.
func TestSessionsLeaveNoDescriptorOpen(t *testing.T) {
	old, cur := pushTrees()
	srv, _, err := msync.NewDirServer(writeDir(t, cur), msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	receiver, _, err := msync.NewDirServer(writeDir(t, old), msync.DefaultConfig(), msync.WithPush(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	stored, _, err := msync.NewStoreServer(writeDir(t, cur), t.TempDir(), msync.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	clientDirs := make([]string, 20)
	for i := range clientDirs {
		clientDirs[i] = writeDir(t, old)
	}

	before := openFDs(t)
	for _, dir := range clientDirs {
		cli, _, err := msync.NewDirClient(dir)
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := storeSyncOnce(t, srv, cli); len(res.Files) == 0 {
			t.Fatal("a pull of an edited copy synced no file")
		}
	}
	if got := openFDs(t); got != before {
		t.Errorf("after 20 pulls: %d descriptors open, %d before", got, before)
	}
	if pushErr, recvErr := pushOnce(srv, receiver); pushErr != nil || recvErr != nil {
		t.Fatalf("pusher: %v, receiver: %v", pushErr, recvErr)
	}
	if got := openFDs(t); got != before {
		t.Errorf("after a push: %d descriptors open, %d before", got, before)
	}
	if v, err := stored.Snapshot(); err != nil || v != 1 {
		t.Fatalf("snapshot = (%d, %v), want v1", v, err)
	}
	if got := openFDs(t); got != before {
		t.Errorf("after a snapshot: %d descriptors open, %d before", got, before)
	}
}
