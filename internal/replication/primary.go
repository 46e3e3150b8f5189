package replication

// Primary side of WAL shipping. A primary owns nothing new: it serves the
// durability directory an ingest path is already writing — each follower
// connection gets a wal.Tailer over the live log, preceded by a snapshot
// bootstrap when the follower's position has been pruned away. The tailer
// never reads past the log's durable frontier, so a follower can only
// learn state the primary itself would recover after a crash.
//
// Epoch fencing: the primary carries the manifest's epoch. A follower
// hello with a HIGHER epoch means this primary was deposed by a promotion
// it hasn't heard about — it must refuse the connection (and its operator
// should retire it), never ship records that rewrite the new timeline.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"graphtinker/internal/wal"
)

// ErrPrimaryClosed is returned by Serve/HandleConn after Close.
var ErrPrimaryClosed = errors.New("replication: primary closed")

// DefaultSnapshotChunkBytes sizes snapshot bootstrap chunks.
const DefaultSnapshotChunkBytes = 256 << 10

// PrimaryOptions configures NewPrimary.
type PrimaryOptions struct {
	// Epoch is the primary's replication term, from the manifest that
	// recovered it (0 for a fresh directory).
	Epoch uint64
	// SnapshotChunkBytes sizes bootstrap chunks (default 256 KiB).
	SnapshotChunkBytes int
	// HeartbeatInterval, when > 0, sends the durable frontier to idle
	// followers at this period so their lag gauges stay current.
	HeartbeatInterval time.Duration
	// Recorder, when non-nil, receives ship-side telemetry.
	Recorder *Recorder
}

// Primary ships a durability directory's checkpoint + live WAL tail to
// followers. Safe for concurrent use; each connection is served on its
// own goroutine (Serve) or the caller's (HandleConn).
type Primary struct {
	dir  string
	log  *wal.Log
	opts PrimaryOptions

	mu     sync.Mutex
	lns    []net.Listener
	closed chan struct{}
	down   bool
	wg     sync.WaitGroup
}

// NewPrimary wraps an open WAL (and the durability directory holding its
// checkpoints) as a replication source. The caller keeps ownership of the
// log; Close stops serving but does not close it.
func NewPrimary(dir string, log *wal.Log, opts PrimaryOptions) *Primary {
	if opts.SnapshotChunkBytes <= 0 {
		opts.SnapshotChunkBytes = DefaultSnapshotChunkBytes
	}
	return &Primary{dir: dir, log: log, opts: opts, closed: make(chan struct{})}
}

// Epoch returns the primary's replication term.
func (p *Primary) Epoch() uint64 { return p.opts.Epoch }

// Serve accepts follower connections on ln until Close (which also closes
// ln). It returns immediately; each accepted connection is handled on its
// own goroutine.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return ErrPrimaryClosed
	}
	p.lns = append(p.lns, ln)
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (by Close or externally)
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				_ = p.HandleConn(conn) // per-connection errors end that stream only
			}()
		}
	}()
	return nil
}

// HandleConn serves one follower on conn, blocking until the stream ends:
// the follower disconnects, the primary closes, or an error. It owns conn
// and closes it on return.
func (p *Primary) HandleConn(conn net.Conn) error {
	fc := newFrameConn(conn, p.opts.Recorder)
	defer func() { _ = fc.Close() }() // stream outcome is the signal; double-close is benign
	err := p.serveStream(fc)
	if err != nil && !errors.Is(err, ErrPrimaryClosed) {
		// Best-effort: tell the follower why before hanging up.
		_ = fc.send(frameError, encodeErrorFrame(errCodeGeneric, err.Error()))
	}
	return err
}

func (p *Primary) serveStream(fc *frameConn) error {
	ft, payload, err := fc.recv()
	if err != nil {
		return fmt.Errorf("replication: primary: hello: %w", err)
	}
	if ft != frameHello {
		return fmt.Errorf("%w: expected hello, got frame type %d", ErrBadFrame, ft)
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if hello.version != protocolVersion {
		return fmt.Errorf("replication: primary speaks protocol %d, follower %d", protocolVersion, hello.version)
	}
	if hello.epoch > p.opts.Epoch {
		// The follower has seen a newer term: this primary was deposed.
		if p.opts.Recorder != nil {
			p.opts.Recorder.StaleEpochRejects.Inc()
		}
		_ = fc.send(frameError, encodeErrorFrame(errCodeStaleEpoch,
			fmt.Sprintf("primary epoch %d < follower epoch %d", p.opts.Epoch, hello.epoch)))
		return fmt.Errorf("%w: follower at epoch %d, primary at %d", ErrStaleEpoch, hello.epoch, p.opts.Epoch)
	}

	tl, err := p.attachTailer(fc, hello.haveLSN)
	if err != nil {
		return err
	}
	defer func() { _ = tl.Close() }() // releases the retention pin; no durable state behind it

	if err := fc.send(frameStart, encodeStart(startMsg{
		epoch:   p.opts.Epoch,
		fromLSN: tl.Position(),
		durable: p.log.DurableLSN(),
	})); err != nil {
		return err
	}

	stopHB := p.startHeartbeats(fc)
	defer stopHB()

	for {
		_, count, record, err := tl.Next(p.closed)
		if err != nil {
			if errors.Is(err, wal.ErrTailerStopped) || errors.Is(err, wal.ErrClosed) {
				return ErrPrimaryClosed
			}
			return err
		}
		if err := fc.sendFrontier(frameRecords, p.log.DurableLSN(), record); err != nil {
			return err
		}
		if p.opts.Recorder != nil {
			p.opts.Recorder.RecordsShipped.Inc()
			p.opts.Recorder.OpsShipped.Add(uint64(count))
		}
	}
}

// attachTailer positions a tailer at the follower's LSN, falling back to a
// snapshot bootstrap when that position has been pruned. The checkpoint
// race (a concurrent Checkpoint pruning between manifest load and tailer
// registration, or removing the stale snapshot mid-open) is handled by
// retrying with a fresh manifest — the tailer is registered at the
// manifest's LSN before the snapshot ships, so once registration succeeds
// the tail can no longer vanish.
func (p *Primary) attachTailer(fc *frameConn, haveLSN uint64) (*wal.Tailer, error) {
	const maxAttempts = 5
	for attempt := 0; ; attempt++ {
		tl, err := p.log.NewTailer(haveLSN)
		if err == nil {
			return tl, nil
		}
		if !errors.Is(err, wal.ErrTailPruned) || attempt >= maxAttempts {
			return nil, err
		}
		m, ok, lerr := wal.LoadManifest(p.dir)
		if lerr != nil {
			return nil, lerr
		}
		if !ok || m.Snapshot == "" {
			return nil, fmt.Errorf("replication: primary: LSN %d pruned but no checkpoint to bootstrap from", haveLSN)
		}
		if m.LastLSN <= haveLSN {
			continue // stale manifest read; the prune that beat us implies a newer checkpoint
		}
		f, err := wal.OpenManifestSnapshot(p.dir, m)
		if err != nil {
			continue // checkpoint raced us and GC'd this snapshot; reload
		}
		tl, err = p.log.NewTailer(m.LastLSN)
		if err != nil {
			_ = f.Close() // abandoning bootstrap; the tailer error drives the retry
			if errors.Is(err, wal.ErrTailPruned) {
				continue
			}
			return nil, err
		}
		err = p.sendSnapshot(fc, f, m)
		_ = f.Close() // read-only handle; the ship error below is the signal
		if err != nil {
			_ = tl.Close()
			return nil, err
		}
		if p.opts.Recorder != nil {
			p.opts.Recorder.SnapshotsSent.Inc()
		}
		return tl, nil
	}
}

func (p *Primary) sendSnapshot(fc *frameConn, f *os.File, m wal.Manifest) error {
	if err := fc.send(frameSnapHeader, encodeSnapHeader(snapHeaderMsg{
		epoch:   p.opts.Epoch,
		lastLSN: m.LastLSN,
		shards:  uint32(m.Shards),
		size:    m.SnapshotBytes,
		crc:     m.SnapshotCRC,
	})); err != nil {
		return err
	}
	buf := make([]byte, p.opts.SnapshotChunkBytes)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			if serr := fc.sendBuffered(frameSnapChunk, buf[:n]); serr != nil {
				return serr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("replication: primary: read snapshot: %w", err)
		}
	}
	return fc.send(frameSnapDone, nil)
}

// startHeartbeats runs the idle-follower heartbeat ticker when configured;
// the returned func stops it.
func (p *Primary) startHeartbeats(fc *frameConn) func() {
	if p.opts.HeartbeatInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(p.opts.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := fc.sendFrontier(frameHeartbeat, p.log.DurableLSN(), nil); err != nil {
					return // the record stream will surface the connection error
				}
			case <-done:
				return
			case <-p.closed:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// Close stops serving: listeners close, per-connection streams unwind
// (their tailers unblock), and Close returns once every handler exits.
// The WAL itself stays open — the caller owns it.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return nil
	}
	p.down = true
	lns := p.lns
	close(p.closed)
	p.mu.Unlock()
	for _, ln := range lns {
		_ = ln.Close() // shutting down; accept-loop exit is the outcome that matters
	}
	p.wg.Wait()
	return nil
}
