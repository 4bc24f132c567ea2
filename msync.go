// Package msync is a bandwidth-efficient file synchronization library for
// maintaining large replicated collections over slow networks, reproducing
// Suel, Noel and Trendafilov, "Improved File Synchronization Techniques for
// Maintaining Large Replicated Collections over Slow Networks" (ICDE 2004).
//
// # Model
//
// A server holds the current version of a collection of files; a client
// holds an outdated copy and wants to update it with minimum communication.
// Synchronization runs in two phases per changed file:
//
//  1. Map construction: a multi-round protocol in which the client builds an
//     approximate map of the server's file — regions it already holds
//     (found via recursively halved block hashes, continuation hashes that
//     extend confirmed matches, and group-testing verification) and regions
//     it does not.
//  2. Delta compression: the server encodes the unknown regions relative to
//     the known ones and ships the delta.
//
// All changed files share each protocol roundtrip, so latency stays flat as
// collections grow.
//
// # Quick start
//
//	a, b := msync.Pipe()
//	srv, _ := msync.NewServer(currentFiles, msync.DefaultConfig())
//	go srv.Serve(a)
//	res, err := msync.NewClient(outdatedFiles).Sync(b)
//	// res.Files now equals currentFiles; res.Costs says what it cost.
//
// For single files, SyncFile runs both sides in process and reports exact
// wire costs; see the examples directory for networked usage.
package msync

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"msync/internal/collection"
	"msync/internal/core"
	"msync/internal/dirio"
	"msync/internal/obs"
	"msync/internal/sigcache"
	"msync/internal/stats"
	"msync/internal/store"
	"msync/internal/transport"
	"msync/internal/wire"
)

// Config tunes the synchronization protocol; see the field documentation in
// internal/core. Build one with DefaultConfig, BasicConfig or OneShotConfig
// and adjust fields as needed.
type Config = core.Config

// Costs is the per-session cost accounting: bytes by direction and phase,
// roundtrips, and per-technique counters.
type Costs = stats.Costs

// DefaultConfig enables all of the paper's techniques, tuned for slow links:
// one verification batch per round and continuation probes down to 32 bytes.
func DefaultConfig() Config { return core.DefaultConfig() }

// BasicConfig is the paper's "basic protocol": recursive halving and
// decomposable hashes with trivial per-candidate verification.
func BasicConfig() Config { return core.BasicConfig() }

// OneShotConfig is a single-roundtrip variant for small files or
// latency-bound links.
func OneShotConfig(blockSize int) Config { return core.OneShotConfig(blockSize) }

// MapMode selects the map-construction strategy of a session; see the mode
// constants and WithMapMode.
type MapMode = core.MapMode

const (
	// MapHalving is the paper's recursive-halving map construction — the
	// default, and the only mode pre-CDC peers understand.
	MapHalving = core.MapHalving
	// MapCDC derives block boundaries from content-defined chunk cuts, so
	// insertions and deletions shift boundaries with the content instead of
	// breaking the fixed power-of-two grid. Strongest on shift-heavy data
	// (growing logs, database dumps, rebuilt archives).
	MapCDC = core.MapCDC
)

// ParseMapMode parses a mode name ("halving" or "cdc") as accepted by the
// CLI's -map-mode flag.
func ParseMapMode(s string) (MapMode, error) { return core.ParseMapMode(s) }

// FileResult reports a single-file synchronization.
type FileResult struct {
	// Data is the reconstructed current version.
	Data []byte
	// Costs is the exact wire cost (payload bytes, by direction and phase).
	Costs Costs
	// Rounds is the number of map-construction rounds used.
	Rounds int
}

// SyncFile synchronizes one file with both endpoints in process: old is the
// outdated copy, current the up-to-date one. It returns the reconstructed
// file (always equal to current) along with the exact number of bytes a
// networked run would have transferred. Use it to measure synchronization
// cost or as a reference for driving the engines manually.
func SyncFile(old, current []byte, cfg Config) (*FileResult, error) {
	return SyncFileContext(context.Background(), old, current, cfg)
}

// SyncFileContext is SyncFile with a cancellation checkpoint at every
// protocol round; SyncFile delegates here with context.Background().
func SyncFileContext(ctx context.Context, old, current []byte, cfg Config) (*FileResult, error) {
	res, err := core.SyncLocalContext(ctx, old, current, cfg)
	if err != nil {
		return nil, err
	}
	return &FileResult{Data: res.Output, Costs: res.Costs, Rounds: res.Rounds}, nil
}

// BroadcastResult reports a one-to-many file synchronization.
type BroadcastResult = core.BroadcastResult

// BroadcastFile synchronizes one current file to many clients holding
// different outdated versions, transmitting the hash payload once for all
// of them (the paper's server-broadcast scenario). Requires a one-shot
// configuration — see OneShotConfig — because only a single-round hash
// stream is independent of client feedback.
func BroadcastFile(current []byte, olds [][]byte, cfg Config) (*BroadcastResult, error) {
	return core.BroadcastSync(current, olds, cfg)
}

// ErrServerClosed is returned by ListenAndServe and ServeListener after
// Shutdown or Close.
var ErrServerClosed = errors.New("msync: server closed")

// ErrNotVersioned is returned by Server.Snapshot when the server was built
// without a version store (no WithStore option).
var ErrNotVersioned = collection.ErrNotVersioned

// BusyError is the typed refusal a Server sends when admission control
// sheds a connection (WithMaxSessions/WithMaxQueued): RetryAfter carries
// the server's suggested minimum wait before redialing. Sync and
// SyncContext surface it wrapped (inspect with errors.As); SyncTCP and
// SyncTCPContext with a WithRetry policy consume it themselves, folding
// the hint into the backoff schedule.
type BusyError = wire.BusyError

// Server serves the current version of a collection to synchronizing
// clients. Configure it at construction with Options (timeouts, push,
// session observation); control its listeners' lifecycle with Shutdown and
// Close.
type Server struct {
	inner *collection.Server
	opt   sessionOptions

	// st is the version store attached with WithStore, nil otherwise. It is
	// closed exactly once when the server shuts down.
	st        *store.Store
	storeOnce sync.Once

	// baseCtx is the parent of every session context; baseCancel fires on
	// forced shutdown so in-flight sessions abort at their next round.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// Admission control (WithMaxSessions/WithMaxQueued): sem holds one
	// token per running session, queue one per connection waiting for a
	// slot. Both nil when admission is unlimited. done closes when
	// shutdown begins so queued waiters shed instead of waiting forever.
	sem   chan struct{}
	queue chan struct{}
	done  chan struct{}

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	sessions  sync.WaitGroup
	shutdown  bool
}

// initServing finishes construction of the serving path once options are
// applied: base context, shutdown signal, and the admission semaphore/queue.
func (s *Server) initServing() {
	if s.opt.busyRetryAfter <= 0 {
		s.opt.busyRetryAfter = time.Second
	}
	if n := s.opt.maxSessions; n > 0 {
		s.sem = make(chan struct{}, n)
		if q := s.opt.maxQueued; q > 0 {
			s.queue = make(chan struct{}, q)
		}
	}
	s.done = make(chan struct{})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
}

// NewServer creates a Server over a path-keyed collection. Options configure
// timeouts, push acceptance, the version store and session observation; see
// Option. Invalid options are reported wrapped in ErrBadOption.
func NewServer(files map[string][]byte, cfg Config, opts ...Option) (*Server, error) {
	s, _, err := newServer(cfg, opts, func(*sessionOptions, *Config) (collection.Source, []error, error) {
		return collection.MapSource(files), nil, nil
	})
	return s, err
}

// newServer builds a Server over the source open returns, once the options
// are applied and the config has its worker budget: the version store, if
// configured, around the source, the inner server with the options, and the
// serving path. open's per-file errors are passed through.
func newServer(cfg Config, opts []Option, open func(*sessionOptions, *Config) (collection.Source, []error, error)) (*Server, []error, error) {
	s := &Server{
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.opt.apply(opts)
	if s.opt.err != nil {
		return nil, nil, s.opt.err
	}
	if s.opt.Workers != 0 {
		cfg.Workers = s.opt.Workers
	}
	src, werrs, err := open(&s.opt, &cfg)
	if err == nil {
		src, err = s.attachStore(src)
	}
	if err != nil {
		return nil, werrs, err
	}
	if s.inner, err = collection.NewServerSource(src, cfg); err != nil {
		s.closeStore()
		return nil, werrs, err
	}
	s.inner.Options = s.opt.Options
	s.initServing()
	return s, werrs, nil
}

// attachStore opens the version store configured with WithStore (if any) and
// wraps src so the server can answer announced versions from the journal.
func (s *Server) attachStore(src collection.Source) (collection.Source, error) {
	if s.opt.storeDir == "" {
		return src, nil
	}
	st, err := store.Open(s.opt.storeDir, store.Options{Budget: s.opt.storeBudget})
	if err != nil {
		return nil, err
	}
	s.st = st
	s.updateStoreGauges()
	return collection.NewStoreSource(src, st), nil
}

// updateStoreGauges refreshes the msync_store_versions and msync_store_bytes
// gauges from the store's current stats.
func (s *Server) updateStoreGauges() {
	r := s.opt.Metrics
	if r == nil || s.st == nil {
		return
	}
	st := s.st.Stats()
	r.Gauge(obs.MetricStoreVersions).Set(int64(st.Versions))
	r.Gauge(obs.MetricStoreBytes).Set(st.SegmentBytes + st.JournalBytes)
}

// closeStore closes the attached version store exactly once; further
// Snapshot calls fail. No-op without WithStore.
func (s *Server) closeStore() error {
	var err error
	s.storeOnce.Do(func() {
		if s.st != nil {
			err = s.st.Close()
		}
	})
	return err
}

// Snapshot commits the server's current collection to the version store as a
// new immutable version and returns its number (idempotent when nothing
// changed since the last snapshot). Clients that announce a snapshotted
// version with WithBaseVersion are served its precomputed journal delta.
// Returns ErrNotVersioned when the server was built without WithStore.
func (s *Server) Snapshot() (uint64, error) {
	v, err := s.inner.Snapshot()
	if err != nil {
		return 0, err
	}
	s.updateStoreGauges()
	return v, nil
}

// NewDirServer creates a Server that streams the collection from a directory
// tree instead of holding it in memory: files are opened, hashed and released
// one at a time. With WithSignatureCache, fingerprints and block-hash tables
// persist across sessions so serving an unchanged tree again does almost no
// hashing. Per-file read/stat failures do not abort construction; they are
// returned as the second value (each wrapping the offending path) and the
// affected files are simply absent from the collection. The error result is
// non-nil only when root itself is unusable. With WithPush, a push is written
// into root and served from there (see WithPush).
func NewDirServer(root string, cfg Config, opts ...Option) (*Server, []error, error) {
	return newServer(cfg, opts, func(o *sessionOptions, cfg *Config) (collection.Source, []error, error) {
		return newTreeSource(root, o, cfg.Workers, collection.ConfigFingerprint(cfg))
	})
}

// NewStoreServer creates a directory-backed Server with a version store at
// storeDir: NewDirServer plus WithStore(storeDir). Cut versions with
// Server.Snapshot; clients announcing one with WithBaseVersion receive its
// precomputed journal delta instead of a fresh map construction.
func NewStoreServer(root, storeDir string, cfg Config, opts ...Option) (*Server, []error, error) {
	opts = append(opts[:len(opts):len(opts)], WithStore(storeDir))
	return NewDirServer(root, cfg, opts...)
}

// newTreeSource opens root as a lazily streamed tree and wires in the
// signature cache configured by the options. The endpoint's worker budget
// bounds both the tree walk's stats and the manifest's hashing. The client
// side keys cached signatures with fingerprint 0: it caches only whole-file
// sums, which do not depend on the engine config.
func newTreeSource(root string, opt *sessionOptions, workers int, fingerprint uint64) (collection.Source, []error, error) {
	tree, werrs, err := dirio.OpenTreeWorkers(root, workers)
	var errs []error
	for _, we := range werrs {
		errs = append(errs, we)
	}
	if err != nil {
		return nil, errs, err
	}
	var cache *sigcache.Cache
	if opt.cacheEnabled {
		cache = sigcache.New(sigcache.Options{Dir: opt.cacheDir, MemBytes: opt.cacheMem})
	}
	return collection.NewTreeSource(tree, cache, fingerprint, opt.cacheParanoid), errs, nil
}

// Serve runs one synchronization session over conn and returns its costs.
// It is ServeContext with a background context.
func (s *Server) Serve(conn io.ReadWriter) (*Costs, error) {
	return s.ServeContext(context.Background(), conn)
}

// ServeContext runs one session over conn under ctx: cancellation aborts
// the session at the next protocol round, the WithTimeout option bounds the
// whole session, and WithRoundTimeout bounds each round. The session hook,
// if installed, observes the outcome.
func (s *Server) ServeContext(ctx context.Context, conn io.ReadWriter) (*Costs, error) {
	start := time.Now()
	costs, err := s.inner.ServeContext(ctx, conn)
	if s.opt.hook != nil {
		ev := SessionEvent{Costs: costs, Err: err, Duration: time.Since(start)}
		if nc, ok := conn.(net.Conn); ok {
			ev.RemoteAddr = nc.RemoteAddr().String()
		}
		s.opt.hook(ev)
	}
	return costs, err
}

// ListenAndServe accepts TCP connections on addr and serves each one. It
// runs until the listener fails or the server is shut down, returning
// ErrServerClosed in the latter case.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer l.Close()
	return s.ServeListener(l)
}

// ServeListener serves sessions from an existing listener until it fails or
// the server is shut down (ErrServerClosed). Every session goroutine is
// tracked: Shutdown drains them gracefully and Close reaps them, so none
// leak past the server's lifecycle.
//
// Transient Accept failures — file-descriptor exhaustion (EMFILE/ENFILE),
// connections aborted before accept (ECONNABORTED) and anything a net.Error
// self-reports as temporary — do not end the loop; they are retried with
// exponential backoff from 5ms up to 1s. Each accepted connection passes
// admission control (WithMaxSessions/WithMaxQueued) before being served;
// over-capacity connections are refused with a BUSY answer.
func (s *Server) ServeListener(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	var acceptDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closing() {
				return ErrServerClosed
			}
			if !isTemporaryAccept(err) {
				return err
			}
			if acceptDelay == 0 {
				acceptDelay = 5 * time.Millisecond
			} else if acceptDelay *= 2; acceptDelay > time.Second {
				acceptDelay = time.Second
			}
			if r := s.opt.Metrics; r != nil {
				r.Counter(obs.MetricAcceptRetries).Inc()
			}
			if lg := s.opt.Logger; lg != nil {
				lg.Warn("msync: transient accept error; retrying",
					"error", err, "backoff", acceptDelay)
			}
			select {
			case <-time.After(acceptDelay):
			case <-s.done:
				return ErrServerClosed
			}
			continue
		}
		acceptDelay = 0
		if r := s.opt.Metrics; r != nil {
			r.Counter(obs.MetricConnsAccepted).Inc()
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.sessions.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// isTemporaryAccept reports whether an Accept error is worth retrying:
// descriptor exhaustion and racily-aborted connections are load conditions
// that pass, not listener failures.
func isTemporaryAccept(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // the accept-retry idiom net/http uses
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNABORTED, syscall.ECONNRESET,
		syscall.EMFILE, syscall.ENFILE, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// handleConn owns one accepted connection for its whole lifetime: admission
// (waiting in the queue if configured), the session itself, then outcome
// classification. It runs on its own goroutine, tracked by s.sessions.
func (s *Server) handleConn(c net.Conn) {
	defer s.sessions.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	release, ok := s.admit()
	if !ok {
		s.shed(c)
		return
	}
	defer release()
	if r := s.opt.Metrics; r != nil {
		r.Counter(obs.MetricSessionsAdmitted).Inc()
	}
	_, err := s.ServeContext(s.baseCtx, c)
	s.recordSessionError(c, err)
}

// admit acquires a session slot, waiting in the bounded queue when the
// server is at capacity. ok=false means the connection must be shed: the
// queue was full, or shutdown began while waiting. The returned release
// frees the slot and must be called exactly once when ok.
func (s *Server) admit() (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, true
	default:
	}
	if s.queue == nil {
		return nil, false
	}
	select {
	case s.queue <- struct{}{}:
	default:
		return nil, false
	}
	if r := s.opt.Metrics; r != nil {
		r.Gauge(obs.MetricSessionsQueued).Inc()
	}
	defer func() {
		if r := s.opt.Metrics; r != nil {
			r.Gauge(obs.MetricSessionsQueued).Dec()
		}
		<-s.queue
	}()
	select {
	case s.sem <- struct{}{}:
		return s.releaseSlot, true
	case <-s.done:
		return nil, false
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// shed refuses an over-capacity connection: a BUSY frame with the
// configured retry-after hint, then a brief drain of the peer's unread
// input before close. The drain matters — the client has already sent its
// hello and manifest, and closing with unread receive data makes TCP reset
// the connection, destroying the BUSY answer in the peer's buffer before
// it can be read.
func (s *Server) shed(c net.Conn) {
	if r := s.opt.Metrics; r != nil {
		r.Counter(obs.MetricSessionsShed).Inc()
	}
	if lg := s.opt.Logger; lg != nil {
		lg.Warn("msync: shedding connection: server at capacity",
			"remote", c.RemoteAddr().String(), "retry_after", s.opt.busyRetryAfter)
	}
	_ = c.SetWriteDeadline(time.Now().Add(time.Second))
	fw := wire.NewFrameWriter(c)
	if fw.WriteFrame(wire.FrameBusy, wire.EncodeBusy(s.opt.busyRetryAfter)) != nil || fw.Flush() != nil {
		return
	}
	_ = c.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.Copy(io.Discard, c)
}

// recordSessionError classifies and logs one finished session's error —
// the serving loop used to discard these outright, hiding both client
// hang-ups and genuine server-side failures. Client aborts (peer hung up
// or reset mid-session) and server-side errors feed separate counters so
// an unhealthy server is distinguishable from unreliable clients.
func (s *Server) recordSessionError(c net.Conn, err error) {
	if err == nil {
		return
	}
	abort := isClientAbort(err)
	if r := s.opt.Metrics; r != nil {
		if abort {
			r.Counter(obs.MetricClientAborts).Inc()
		} else {
			r.Counter(obs.MetricSessionFailures).Inc()
		}
	}
	if lg := s.opt.Logger; lg != nil {
		if abort {
			lg.Warn("msync: session aborted by client",
				"remote", c.RemoteAddr().String(), "error", err)
		} else {
			lg.Error("msync: session failed",
				"remote", c.RemoteAddr().String(), "error", err)
		}
	}
}

// isClientAbort reports whether a session error traces back to the peer
// going away (EOF, reset, broken pipe, or our own shutdown closing the
// conn) rather than a protocol or local failure.
func isClientAbort(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// closing reports whether Shutdown or Close has begun.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// Shutdown gracefully stops the server: it closes all listeners (new dials
// are rejected immediately), lets in-flight sessions run to completion, and
// returns nil once they have drained. If ctx expires first, remaining
// sessions are aborted (their connections closed and contexts cancelled)
// and ctx's error is returned. Safe to call concurrently and repeatedly.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeStore()
	case <-ctx.Done():
		s.forceClose()
		<-done
		s.closeStore()
		return ctx.Err()
	}
}

// Close stops the server immediately: listeners and all in-flight session
// connections are closed and sessions are aborted. It returns once every
// session goroutine has exited.
func (s *Server) Close() error {
	s.beginShutdown()
	s.forceClose()
	s.sessions.Wait()
	return s.closeStore()
}

// beginShutdown marks the server closing, stops all listeners, and wakes
// queued admission waiters so they shed with BUSY instead of waiting for
// slots that will never free up for them.
func (s *Server) beginShutdown() {
	s.mu.Lock()
	if !s.shutdown {
		s.shutdown = true
		if s.done != nil {
			close(s.done)
		}
	}
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
}

// forceClose aborts in-flight sessions: cancels their base context (round
// checkpoints fire) and closes their connections (blocked I/O fails).
func (s *Server) forceClose() {
	s.baseCancel()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Push updates a remote replica with this server's newer collection — the
// reverse transfer direction, for replicas that cannot dial out. The remote
// must allow pushes (WithPush). It is PushContext with a background context.
func (s *Server) Push(conn io.ReadWriter) (*Costs, error) {
	return s.PushContext(context.Background(), conn)
}

// PushContext runs Push under ctx with the configured timeouts: the
// WithTimeout option bounds the whole push and WithRoundTimeout each round.
func (s *Server) PushContext(ctx context.Context, conn io.ReadWriter) (*Costs, error) {
	return s.inner.PushContext(ctx, conn)
}

// PushTCP dials addr and pushes over TCP. It is PushTCPContext with a
// background context.
func (s *Server) PushTCP(addr string) (*Costs, error) {
	return s.PushTCPContext(context.Background(), addr)
}

// PushTCPContext dials addr (bounded by WithDialTimeout) and pushes over
// TCP under ctx.
func (s *Server) PushTCPContext(ctx context.Context, addr string) (*Costs, error) {
	d := net.Dialer{Timeout: s.opt.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return s.PushContext(ctx, conn)
}

// Client synchronizes a local collection copy against a Server. Configure
// it at construction with Options: change-detection mode, session and round
// timeouts, and dial retry with backoff.
type Client struct {
	inner *collection.Client
	opt   sessionOptions
}

// NewClient creates a Client over the local path-keyed collection. Options
// configure change detection, timeouts and retry; see Option. NewClient
// cannot report invalid options — it ignores them, keeping the defaults; use
// NewClientE to have them checked.
func NewClient(files map[string][]byte, opts ...Option) *Client {
	c, _ := newClient(files, opts...)
	return c
}

// NewClientE is NewClient with option validation: it returns the first
// invalid option wrapped in ErrBadOption instead of silently ignoring it.
func NewClientE(files map[string][]byte, opts ...Option) (*Client, error) {
	c, err := newClient(files, opts...)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds a map-backed client, returning the collected option
// error, if any; the client is usable either way (invalid options keep
// their defaults).
func newClient(files map[string][]byte, opts ...Option) (*Client, error) {
	c := &Client{inner: collection.NewClient(files)}
	c.opt.apply(opts)
	c.inner.Options = c.opt.Options
	return c, c.opt.err
}

// NewDirClient creates a Client whose local copy is streamed from a
// directory tree instead of preloaded into memory. With WithSignatureCache,
// manifest fingerprints persist across runs so repeat syncs of a mostly
// unchanged tree cost a stat per file. Its Result holds only the content the
// session wrote and lists unchanged paths by name, so Result.Apply replaces
// only the files that changed. Per-file read/stat failures are returned as
// the second value (the files are treated as absent); the error result is
// non-nil only when root itself is unusable.
func NewDirClient(root string, opts ...Option) (*Client, []error, error) {
	c := &Client{}
	c.opt.apply(opts)
	if c.opt.err != nil {
		return nil, nil, c.opt.err
	}
	src, werrs, err := newTreeSource(root, &c.opt, c.opt.Workers, 0)
	if err != nil {
		return nil, werrs, err
	}
	c.inner = collection.NewClientSource(src)
	c.inner.Options = c.opt.Options
	return c, werrs, nil
}

// Result is the outcome of a collection synchronization.
type Result struct {
	// Files holds the files the session wrote. A map-backed client
	// (NewClient) has its unchanged files here too, so Files is its whole
	// updated collection; a directory-backed one (NewDirClient) lists them
	// in Unchanged instead. With Deleted, the result describes the complete
	// outcome either way.
	Files map[string][]byte
	// Unchanged lists the paths a directory-backed client's session left
	// untouched.
	Unchanged []string
	// Deleted lists local paths the server no longer has.
	Deleted []string
	// Costs is the session cost accounting.
	Costs *Costs
	// PerFile attributes payload bytes to individual synchronized files.
	PerFile map[string]int64
	// Version is the server's current store version, when the client
	// announced one with WithBaseVersion against a versioned server; 0
	// otherwise. Announce it on the next sync to ride the journal fast path.
	Version uint64
}

// Apply writes the result to a directory tree: Files are written (parent
// directories created) and Deleted paths removed, with emptied parents
// pruned. A directory-backed client's result replaces only the files its
// session wrote. No symlink under root is followed: a path through a
// directory that is a symlink, or not a directory, fails the whole result
// before anything is renamed into place.
func (r *Result) Apply(root string) error {
	return dirio.ApplyChanges(root, r.Files, r.Deleted)
}

// Sync runs one session over conn. It is SyncContext with a background
// context.
func (c *Client) Sync(conn io.ReadWriter) (*Result, error) {
	return c.SyncContext(context.Background(), conn)
}

// SyncContext runs one session over conn under ctx: cancellation aborts the
// session at the next protocol round (interrupting blocked I/O when conn
// supports deadlines), the WithTimeout option bounds the whole session, and
// WithRoundTimeout bounds each round.
func (c *Client) SyncContext(ctx context.Context, conn io.ReadWriter) (*Result, error) {
	res, err := c.inner.SyncContext(ctx, conn)
	if err != nil {
		return nil, err
	}
	return &Result{
		Files:     res.Files,
		Unchanged: res.Unchanged,
		Deleted:   res.Deleted,
		Costs:     res.Costs,
		PerFile:   res.PerFile,
		Version:   res.Version,
	}, nil
}

// SyncTCP dials addr and synchronizes over TCP. It is SyncTCPContext with a
// background context.
func (c *Client) SyncTCP(addr string) (*Result, error) {
	return c.SyncTCPContext(context.Background(), addr)
}

// SyncTCPContext dials addr and synchronizes over TCP under ctx. With a
// WithRetry policy, dial failures and handshake failures (any error before
// file content is exchanged, including round timeouts while waiting for
// verdicts) are retried with exponential backoff and jitter; failures after
// the handshake are returned immediately. A BUSY load-shedding answer from
// the server is likewise retried, waiting at least the server's RetryAfter
// hint before the next attempt. A server too old to know a frame this client
// sent (MANIFEST_REF, MANIFEST_PACKED, MANIFEST_SHORT) refuses it the same
// way every time: that handshake failure is returned after one attempt, and a
// client in tree mode (WithTreeManifest) interoperates with it.
func (c *Client) SyncTCPContext(ctx context.Context, addr string) (*Result, error) {
	var res *Result
	err := transport.Retry(ctx, c.opt.clock, c.opt.retry, func(n int) error {
		if n > 1 {
			if r := c.opt.Metrics; r != nil {
				r.Counter(obs.MetricRetries).Inc()
			}
			if l := c.opt.Logger; l != nil {
				l.Warn("msync: retrying sync", "attempt", n, "addr", addr)
			}
		}
		d := net.Dialer{Timeout: c.opt.dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return err // dial failures are retryable
		}
		defer conn.Close()
		r, err := c.SyncContext(ctx, conn)
		if err != nil {
			var busy *BusyError
			if errors.As(err, &busy) {
				// Load-shedding answer: retry, waiting at least the
				// server's hint before the next attempt.
				if reg := c.opt.Metrics; reg != nil {
					reg.Counter(obs.MetricBusyResponses).Inc()
				}
				if l := c.opt.Logger; l != nil {
					l.Warn("msync: server busy", "attempt", n, "addr", addr,
						"retry_after", busy.RetryAfter)
				}
				return transport.RetryAfterHint(err, busy.RetryAfter)
			}
			if errors.Is(err, collection.ErrHandshake) && strings.Contains(err.Error(), "UNKNOWN(") {
				// The server named a frame this client sent (MANIFEST_REF,
				// MANIFEST_SHORT) by the only name its older build has for
				// it: every attempt would draw the same refusal.
				return transport.Permanent(err)
			}
			if errors.Is(err, collection.ErrHandshake) {
				return err // no content exchanged: retry-safe
			}
			return transport.Permanent(err)
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Pipe returns two connected in-memory endpoints, for in-process
// server/client pairs (tests, examples, benchmarks).
func Pipe() (serverEnd, clientEnd io.ReadWriteCloser) {
	a, b := transport.Pipe()
	return a, b
}

// LinkModel estimates wall-clock transfer time for given costs on a
// bandwidth/latency-constrained link.
type LinkModel = stats.LinkModel
