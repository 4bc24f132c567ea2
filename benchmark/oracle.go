package main

import (
	"fmt"
	"sort"

	"msync"
)

// checkResult is the correctness oracle run on every session: the result of
// a lazy-result client, laid over the client's tree, must be exactly the
// server's tree. It checks that
//
//   - every file the session wrote exists on the server with that length and
//     MD4,
//   - every path reported unchanged is on both sides with identical content,
//   - written and unchanged paths together are the server's path set, each
//     path once,
//   - the deleted paths are exactly the client's paths the server lacks.
//
// server and client are the content sums of the two trees before the session.
func checkResult(res *msync.Result, server, client map[string]fileSum) error {
	seen := make(map[string]bool, len(server))
	for path, data := range res.Files {
		want, ok := server[path]
		if !ok {
			return fmt.Errorf("oracle: wrote %q, which the server does not have", path)
		}
		if got := sumOf(data); got != want {
			return fmt.Errorf("oracle: %q written with %d bytes md4 %x, server has %d bytes md4 %x",
				path, got.N, got.Sum, want.N, want.Sum)
		}
		seen[path] = true
	}
	for _, path := range res.Unchanged {
		if seen[path] {
			return fmt.Errorf("oracle: %q both written and reported unchanged", path)
		}
		want, ok := server[path]
		if !ok {
			return fmt.Errorf("oracle: %q reported unchanged, but the server does not have it", path)
		}
		if have, ok := client[path]; !ok || have != want {
			return fmt.Errorf("oracle: %q reported unchanged, but client and server differ", path)
		}
		seen[path] = true
	}
	if len(seen) != len(server) {
		for path := range server {
			if !seen[path] {
				return fmt.Errorf("oracle: server file %q neither written nor unchanged (%d of %d covered)",
					path, len(seen), len(server))
			}
		}
	}
	var wantDeleted []string
	for path := range client {
		if _, ok := server[path]; !ok {
			wantDeleted = append(wantDeleted, path)
		}
	}
	sort.Strings(wantDeleted)
	gotDeleted := append([]string(nil), res.Deleted...)
	sort.Strings(gotDeleted)
	if len(gotDeleted) != len(wantDeleted) {
		return fmt.Errorf("oracle: %d paths deleted, want %d", len(gotDeleted), len(wantDeleted))
	}
	for i := range wantDeleted {
		if gotDeleted[i] != wantDeleted[i] {
			return fmt.Errorf("oracle: deleted %q, want %q", gotDeleted[i], wantDeleted[i])
		}
	}
	return nil
}
