package transport

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

func TestPipeBasic(t *testing.T) {
	a, b := Pipe()
	msg := []byte("hello across the pipe")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("mismatch")
	}
	// And the reverse direction.
	if _, err := b.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 4)
	if _, err := io.ReadFull(a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Fatal("reverse mismatch")
	}
}

// TestPipeNeverBlocksOnWrite: unlike net.Pipe, large writes with no reader
// must complete (this is what makes single-goroutine protocol tests safe).
func TestPipeNeverBlocksOnWrite(t *testing.T) {
	a, b := Pipe()
	big := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		a.Write(big)
		a.Write(big)
		close(done)
	}()
	<-done // would deadlock with a synchronous pipe
	buf := make([]byte, 2<<20)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPipeBlockingRead(t *testing.T) {
	a, b := Pipe()
	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 5)
		io.ReadFull(b, buf)
		got = buf
	}()
	a.Write([]byte("delay"))
	wg.Wait()
	if string(got) != "delay" {
		t.Fatalf("got %q", got)
	}
}

func TestPipeCloseDrainsThenEOF(t *testing.T) {
	a, b := Pipe()
	a.Write([]byte("leftover"))
	a.Close()
	buf := make([]byte, 8)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("buffered data lost: %v", err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Writing to the closed end errors.
	if _, err := a.Write([]byte("x")); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestPipeConcurrentTraffic(t *testing.T) {
	a, b := Pipe()
	const n = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.Write([]byte{byte(i)})
		}
	}()
	var count int
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for count < n {
			m, err := b.Read(buf)
			if err != nil {
				t.Error(err)
				return
			}
			count += m
		}
	}()
	wg.Wait()
	if count != n {
		t.Fatalf("read %d bytes, want %d", count, n)
	}
}
