package msync

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"msync/internal/collection"
	"msync/internal/transport"
)

// ErrBadOption is wrapped by every constructor error caused by an invalid
// Option argument (negative duration, nil logger, ...). NewServer, NewClientE
// and the other error-returning constructors surface it; inspect with
// errors.Is. NewClient, which cannot return an error, ignores invalid options
// and keeps the defaults instead.
var ErrBadOption = errors.New("msync: bad option")

// Clock abstracts time for retry/backoff scheduling; inject a fake in tests
// via WithClock to exercise backoff without real sleeping.
type Clock = transport.Clock

// RetryPolicy describes the exponential-backoff schedule used by
// Client.SyncTCPContext for dial and handshake failures. See
// DefaultRetryPolicy for sensible values; the zero value disables retry.
type RetryPolicy = transport.BackoffPolicy

// DefaultRetryPolicy retries up to 4 attempts with 200 ms initial backoff,
// doubling to a 5 s cap, with ±50% jitter to decorrelate client storms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   200 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// SessionEvent reports the outcome of one server-side session to the
// observer installed with WithSessionHook.
type SessionEvent struct {
	// RemoteAddr is the peer address for TCP sessions, "" for in-process
	// connections.
	RemoteAddr string
	// Costs is the session's cost accounting (possibly partial on error).
	Costs *Costs
	// Err is the session error, nil on success.
	Err error
	// Duration is the session's wall-clock time.
	Duration time.Duration
}

// sessionOptions collects the knobs shared by NewClient and NewServer: the
// settings the collection endpoint's sessions read, handed to it whole, and
// the ones the root applies itself around them. Options that only apply to
// one side are silently ignored by the other.
type sessionOptions struct {
	collection.Options

	dialTimeout time.Duration
	retry       RetryPolicy
	clock       Clock
	hook        func(SessionEvent)

	maxSessions    int           // concurrent-session cap; 0 = unlimited
	maxQueued      int           // admission wait-queue depth; 0 = no queue
	busyRetryAfter time.Duration // retry-after hint carried by BUSY answers

	cacheEnabled  bool
	cacheDir      string
	cacheMem      int64
	cacheParanoid bool

	storeDir    string // version-store directory; "" = no store (server side)
	storeBudget int64  // GC byte budget for the store; 0 = unlimited

	// err records the first invalid option; error-returning constructors
	// surface it wrapped in ErrBadOption, NewClient drops it.
	err error
}

// apply runs opts over o.
func (o *sessionOptions) apply(opts []Option) {
	for _, opt := range opts {
		opt(o)
	}
}

// badf records the first option-validation failure, wrapped in ErrBadOption.
// The offending option leaves its field at the default.
func (o *sessionOptions) badf(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("%w: %s", ErrBadOption, fmt.Sprintf(format, args...))
	}
}

// Option configures a Client or Server at construction; see the With*
// functions. Every option validates its argument: error-returning
// constructors report the first invalid one wrapped in ErrBadOption, while
// NewClient ignores it and keeps the default.
type Option func(*sessionOptions)

// WithTreeManifest selects merkle-tree change detection instead of the flat
// per-file fingerprint manifest. With n files of which c changed, the
// manifest costs O(n) bytes while the tree costs O(c·log n) — prefer it for
// large, mostly-unchanged collections. Applies to a Client's pulls and a
// Server's pushes.
func WithTreeManifest() Option {
	return func(o *sessionOptions) { o.TreeManifest = true }
}

// WithSpeculativeDescent makes a tree-manifest Client request speculative
// descent (hello extension 3): the server's answers carry several levels of
// merkle digests at once, finishing a typical descent in roughly half the
// roundtrips for the same total bytes. Servers that don't support the
// extension ignore it and the session runs the legacy one-level descent
// byte-identically. Implies nothing without WithTreeManifest; ignored by
// servers (they always grant it when asked).
func WithSpeculativeDescent() Option {
	return func(o *sessionOptions) { o.SpeculativeDescent = true }
}

// WithCrossFileMatch makes a tree-manifest Client request cross-file
// matching (hello extension 3): wanted files whose exact content already
// exists locally under another path (pure renames) are copied locally with
// zero content bytes on the wire, and files new to the client are synced
// against their best alternate local basis (e.g. the old path of a
// moved-and-edited file) instead of from scratch. Servers that don't
// support the extension ignore it; the session then runs byte-identically
// to one without this option. Implies nothing without WithTreeManifest.
func WithCrossFileMatch() Option {
	return func(o *sessionOptions) { o.CrossFileMatch = true }
}

// WithTimeout bounds each whole synchronization session (handshake through
// final ack) by d. Zero means unbounded. On a Client it covers every Sync*
// call; on a Server, every accepted session.
func WithTimeout(d time.Duration) Option {
	return func(o *sessionOptions) {
		if d < 0 {
			o.badf("WithTimeout: negative duration %v", d)
			return
		}
		o.Timeout = d
	}
}

// WithRoundTimeout bounds each protocol round (every frame-level read and
// write) by d, so a stalled peer fails fast instead of hanging the session.
// Effective on connections with deadline support (TCP, Pipe).
func WithRoundTimeout(d time.Duration) Option {
	return func(o *sessionOptions) {
		if d < 0 {
			o.badf("WithRoundTimeout: negative duration %v", d)
			return
		}
		o.RoundTimeout = d
	}
}

// WithDialTimeout bounds each TCP dial attempt by d (client side).
func WithDialTimeout(d time.Duration) Option {
	return func(o *sessionOptions) {
		if d < 0 {
			o.badf("WithDialTimeout: negative duration %v", d)
			return
		}
		o.dialTimeout = d
	}
}

// WithRetry makes Client.SyncTCP / SyncTCPContext retry dial and handshake
// failures per the given backoff policy. Failures after the handshake
// (mid-transfer) are never retried automatically. Use DefaultRetryPolicy()
// as a starting point.
func WithRetry(p RetryPolicy) Option {
	return func(o *sessionOptions) {
		switch {
		case p.MaxAttempts < 0:
			o.badf("WithRetry: negative MaxAttempts %d", p.MaxAttempts)
		case p.BaseDelay < 0:
			o.badf("WithRetry: negative BaseDelay %v", p.BaseDelay)
		case p.MaxDelay < 0:
			o.badf("WithRetry: negative MaxDelay %v", p.MaxDelay)
		case p.Multiplier < 0:
			o.badf("WithRetry: negative Multiplier %g", p.Multiplier)
		case p.Jitter < 0 || p.Jitter > 1:
			o.badf("WithRetry: Jitter %g outside [0, 1]", p.Jitter)
		default:
			o.retry = p
		}
	}
}

// WithClock injects the clock used for retry backoff sleeps; tests pass a
// fake to assert schedules without real delays. Defaults to the system
// clock; passing nil is an error — omit the option instead.
func WithClock(c Clock) Option {
	return func(o *sessionOptions) {
		if c == nil {
			o.badf("WithClock: nil clock")
			return
		}
		o.clock = c
	}
}

// WithPush allows clients to push newer collections into a Server. onUpdate
// (optional, may be nil) receives the adopted collection after each push.
func WithPush(onUpdate func(map[string][]byte)) Option {
	return func(o *sessionOptions) {
		o.AllowPush = true
		o.OnUpdate = onUpdate
	}
}

// WithSessionHook installs an observer called after every server session
// (successful or not) with its outcome — the hook for connection accounting,
// logging and metrics. Passing nil is an error — omit the option instead.
func WithSessionHook(fn func(SessionEvent)) Option {
	return func(o *sessionOptions) {
		if fn == nil {
			o.badf("WithSessionHook: nil hook")
			return
		}
		o.hook = fn
	}
}

// WithMaxSessions caps the number of synchronization sessions a Server runs
// concurrently across all of its listeners. Connections arriving past the
// cap wait in the admission queue (see WithMaxQueued) and, when that is also
// full, are refused with a BUSY answer carrying a retry-after hint instead
// of being served. n = 0 (the default) leaves admission unlimited; negative
// n is an error.
//
// The cap bounds the serving path only — it never changes the bytes an
// admitted session exchanges. Clients built with WithRetry fold the BUSY
// hint into their backoff schedule automatically.
func WithMaxSessions(n int) Option {
	return func(o *sessionOptions) {
		if n < 0 {
			o.badf("WithMaxSessions: negative cap %d", n)
			return
		}
		o.maxSessions = n
	}
}

// WithMaxQueued bounds how many over-capacity connections may wait for a
// session slot before the server starts shedding with BUSY. The queue
// preserves work during short bursts without letting the backlog grow
// unboundedly. n = 0 (the default) disables queueing: every over-capacity
// connection is shed immediately; negative n is an error. Ignored unless
// WithMaxSessions is set.
func WithMaxQueued(n int) Option {
	return func(o *sessionOptions) {
		if n < 0 {
			o.badf("WithMaxQueued: negative depth %d", n)
			return
		}
		o.maxQueued = n
	}
}

// WithHandshakeTimeout bounds the server-side handshake phase of each
// admitted session: a connection that has not completed the opening
// exchange (through the verdicts for pulls, the hello for pushes) within d
// is dropped, so an idle or deliberately slow dial cannot pin a session
// slot that WithMaxSessions has made scarce. Zero (the default) leaves the
// handshake bounded only by WithTimeout/WithRoundTimeout.
func WithHandshakeTimeout(d time.Duration) Option {
	return func(o *sessionOptions) {
		if d < 0 {
			o.badf("WithHandshakeTimeout: negative duration %v", d)
			return
		}
		o.HandshakeTimeout = d
	}
}

// WithBusyRetryAfter sets the retry-after hint a Server encodes into BUSY
// load-shedding answers. Retrying clients wait at least this long before
// the next attempt (their own jittered backoff still applies when longer).
// d = 0 (the default) uses one second; negative d is an error.
func WithBusyRetryAfter(d time.Duration) Option {
	return func(o *sessionOptions) {
		if d < 0 {
			o.badf("WithBusyRetryAfter: negative duration %v", d)
			return
		}
		o.busyRetryAfter = d
	}
}

// WithSignatureCache enables the persistent signature cache for a
// NewDirServer or NewDirClient endpoint: whole-file fingerprints and block
// hash tables are remembered across sessions, keyed by (path, size, mtime,
// ctime where the platform reports one, engine config), so repeat syncs of
// unchanged files cost a stat instead of a hash. dir is the on-disk store directory ("" keeps the cache in memory
// only); memBytes bounds the in-memory layer (0 selects a 64 MB default,
// negative is an error).
// The cache is purely a local accelerator — cached values are identical to
// freshly computed ones and nothing about it is ever serialized into the
// protocol, so the bytes on the wire are bit-identical with the cache on,
// off, cold or warm. Ignored by the map-backed NewClient/NewServer.
func WithSignatureCache(dir string, memBytes int64) Option {
	return func(o *sessionOptions) {
		if memBytes < 0 {
			o.badf("WithSignatureCache: negative memory bound %d", memBytes)
			return
		}
		o.cacheEnabled = true
		o.cacheDir = dir
		o.cacheMem = memBytes
	}
}

// WithParanoidCache re-verifies every signature-cache hit by re-reading the
// file, catching content changes the stat-identity key cannot see. On
// platforms with a stat ctime the key already catches restored-mtime
// rewrites, so this is mainly a backstop for filesystems without one (or
// for clock-skewed stats). It costs the streaming hash the cache was meant
// to avoid — use it when files are rewritten by tools that preserve
// timestamps.
func WithParanoidCache() Option {
	return func(o *sessionOptions) { o.cacheParanoid = true }
}

// WithLazyResult keeps unchanged files out of a directory-backed client's
// Result.Files: the result then holds only written content, with unchanged
// and deleted paths listed by name, so peak memory scales with the change
// set instead of the collection size. Ignored by map-backed clients, which
// have the collection in memory anyway.
func WithLazyResult() Option {
	return func(o *sessionOptions) { o.LazyResult = true }
}

// WithLogger attaches a structured logger to the endpoint: session starts,
// outcomes (bytes, roundtrips, wire and transport I/O counters) and retries
// are logged through it at debug/info/warn levels. Logging is disabled by
// default — there is no hidden output — and passing nil is an error: omit
// the option to keep it off.
func WithLogger(l *slog.Logger) Option {
	return func(o *sessionOptions) {
		if l == nil {
			o.badf("WithLogger: nil logger")
			return
		}
		o.Logger = l
	}
}

// WithTracer attaches a Tracer receiving span-like events per protocol
// phase; see Tracer for the guarantees. Tracing is off by default at zero
// cost; passing nil is an error — omit the option instead.
func WithTracer(tr Tracer) Option {
	return func(o *sessionOptions) {
		if tr == nil {
			o.badf("WithTracer: nil tracer")
			return
		}
		o.Tracer = tr
	}
}

// WithMetrics folds every session's outcome into the given registry:
// msync_sessions_total, msync_session_errors_total, the
// msync_sessions_active gauge, a session-duration histogram, retry counts,
// and the full per-direction/per-phase byte and technique counters mirrored
// from each session's Costs. One registry may be shared by any number of
// endpoints. Passing nil is an error — omit the option instead.
func WithMetrics(r *MetricsRegistry) Option {
	return func(o *sessionOptions) {
		if r == nil {
			o.badf("WithMetrics: nil registry")
			return
		}
		o.Metrics = r
	}
}

// WithWorkers bounds this endpoint's local parallelism: per-file engine
// fan-out across synchronized files, sharded old-file scans, and batched
// verification hashing. n = 0 (the default) uses runtime.GOMAXPROCS(0);
// n = 1 runs fully serially; negative n is an error. The setting is local to
// each endpoint and never negotiated: the bytes on the wire are bit-identical
// for every value.
func WithWorkers(n int) Option {
	return func(o *sessionOptions) {
		if n < 0 {
			o.badf("WithWorkers: negative worker count %d", n)
			return
		}
		o.Workers = n
	}
}

// WithMuxStreams enables stream multiplexing with up to n concurrent streams
// per session. On a Client it requests multiplexed pulls (hello extension 2):
// the server partitions the changed files into streams whose map rounds,
// deltas and fallbacks interleave on the one connection, so deep files no
// longer gate shallow ones and tiny files share roundtrips. On a Server it
// caps the width granted to requesting clients. Sessions where either side
// leaves this at 0 (the default), and every push session, run the legacy
// lockstep protocol byte-identically; the negotiated width never changes
// which bytes are synchronized, only their interleaving. Negative n is an
// error.
func WithMuxStreams(n int) Option {
	return func(o *sessionOptions) {
		if n < 0 {
			o.badf("WithMuxStreams: negative stream count %d", n)
			return
		}
		o.MuxStreams = n
	}
}

// WithMapMode makes a Client request the given map-construction mode
// (hello extension 4). The server is authoritative: it grants the mode by
// running the session in it and echoing it in the session config, and
// servers that predate the extension — or refuse the mode — run recursive
// halving byte-identically to a legacy session, so the option is always safe
// to set. MapCDC derives block boundaries from content-defined chunk cuts,
// which keeps boundaries aligned with content across insertions and
// deletions; prefer it for shift-heavy data (append-and-rotate logs,
// database dumps, rebuilt archives). MapHalving (the default) requests
// nothing. Any other value is an error. Ignored by servers, which always
// honor usable client requests.
func WithMapMode(m MapMode) Option {
	return func(o *sessionOptions) {
		if m != MapHalving && m != MapCDC {
			o.badf("WithMapMode: unknown mode %d", int(m))
			return
		}
		o.MapMode = m
	}
}

// WithStore attaches a persistent version store to a Server: an append-only,
// checksummed local store at dir capturing immutable snapshots of the
// collection (cut with Server.Snapshot) with per-version change journals. A
// client that announces a stored version (WithBaseVersion) is answered with
// the precomputed journal delta instead of fresh map construction; unknown or
// garbage-collected versions fall back to the full protocol. Empty dir is an
// error. Ignored by clients.
func WithStore(dir string) Option {
	return func(o *sessionOptions) {
		if dir == "" {
			o.badf("WithStore: empty directory")
			return
		}
		o.storeDir = dir
	}
}

// WithStoreBudget bounds the version store's on-disk size: when segment bytes
// exceed n, oldest versions are garbage-collected (content still reachable
// from surviving versions is rescued first, and the latest version is never
// evicted). n = 0 (the default) disables GC; negative n is an error. Ignored
// without WithStore.
func WithStoreBudget(n int64) Option {
	return func(o *sessionOptions) {
		if n < 0 {
			o.badf("WithStoreBudget: negative budget %d", n)
			return
		}
		o.storeBudget = n
	}
}

// WithBaseVersion makes a Client announce v as the store version its local
// copy corresponds to. With v > 0 the client sends the 16-byte digest of its
// manifest in place of the manifest: a server holding that version in its
// store answers with the precomputed journal delta — no map-construction
// rounds, and next to nothing sent up — and any server (versioned or not)
// that cannot honor the announcement asks for the manifest, one more
// roundtrip, and runs the normal protocol. A server older than that exchange
// refuses it (the sync fails in the handshake, before anything is written)
// and refuses it the same way every time, so SyncTCPContext returns that
// failure after one attempt whatever WithRetry says. Do not announce to
// servers of unknown age. The session's Result.Version
// reports the server's current version for the next sync's announcement.
// v = 0 announces "no known version" (useful to just learn the server's
// current version) and sends the manifest outright.
func WithBaseVersion(v uint64) Option {
	return func(o *sessionOptions) {
		o.AnnounceVersion = true
		o.BaseVersion = v
	}
}
