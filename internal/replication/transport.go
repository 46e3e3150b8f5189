package replication

// Framed transport: every message on a replication connection is a
// length-prefixed, CRC32-C-checksummed frame —
//
//	u32 payload length | u8 frame type | u32 CRC32-C(payload) | payload
//
// (little-endian throughout, matching the WAL's record format). The CRC
// covers the payload only; a corrupt length or type fails the plausibility
// checks instead. The transport runs over any net.Conn: a TCP socket in
// production, net.Pipe in tests — the protocol code cannot tell the
// difference, which is what makes the chaos suite honest.
//
// Failpoints repl/frame-send and repl/frame-recv fire before the
// respective I/O, simulating a connection dying mid-ship.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"

	"graphtinker/internal/core"
	"graphtinker/internal/faultinject"
	"graphtinker/internal/wal"
)

// protocolVersion is bumped on any incompatible frame-format change; a
// primary refuses a follower hello with a different version.
const protocolVersion = 1

// Frame types. The handshake is: follower sends frameHello; the primary
// answers with an optional snapshot bootstrap (frameSnapHeader,
// frameSnapChunk*, frameSnapDone), then frameStart, then a stream of
// frameRecords/frameHeartbeat. frameError terminates either direction.
const (
	frameHello      = byte(1) // follower → primary: version, epoch, have-LSN
	frameSnapHeader = byte(2) // primary → follower: snapshot bootstrap begins
	frameSnapChunk  = byte(3) // primary → follower: raw snapshot bytes
	frameSnapDone   = byte(4) // primary → follower: snapshot complete
	frameStart      = byte(5) // primary → follower: live stream begins at LSN
	frameRecords    = byte(6) // primary → follower: one WAL record + durable frontier
	frameHeartbeat  = byte(7) // primary → follower: durable frontier, no records
	frameError      = byte(8) // either direction: terminal error with code
)

// maxFramePayload bounds a single frame; anything larger on the wire is
// corruption, not data (a WAL record tops out well below this, and
// snapshot chunks are sized by the sender).
const maxFramePayload = 64 << 20

const frameHeaderSize = 9 // u32 len + u8 type + u32 crc

// frameReadStart is the receive buffer's first size. It doubles from there
// as a payload's bytes arrive, so a header's length claim alone allocates
// nothing.
const frameReadStart = 4 << 10

// Error codes carried by frameError payloads.
const (
	errCodeGeneric    = uint32(0)
	errCodeStaleEpoch = uint32(1)
)

// ErrStaleEpoch reports a replication peer fenced off by the epoch
// counter: the sender's term is older than the receiver's, meaning the
// sender was deposed by a promotion it hasn't heard about.
var ErrStaleEpoch = errors.New("replication: stale epoch (peer was deposed by a promotion)")

// ErrBadFrame wraps transport-level corruption: implausible lengths,
// checksum mismatches, or malformed payloads.
var ErrBadFrame = errors.New("replication: bad frame")

// frameConn wraps a net.Conn with buffered, checksummed framing. Reads
// and writes are independently single-goroutine; sendMu additionally
// serializes writers so heartbeats can interleave with the record stream.
type frameConn struct {
	c      net.Conn
	br     *bufio.Reader
	sendMu sync.Mutex
	bw     *bufio.Writer
	rec    *Recorder
	rhdr   [frameHeaderSize]byte
	whdr   [frameHeaderSize]byte
	wlsn   [8]byte // durable frontier of the frame being sent
	rbuf   []byte  // reused receive payload buffer
}

func newFrameConn(c net.Conn, rec *Recorder) *frameConn {
	return &frameConn{
		c:   c,
		br:  bufio.NewReaderSize(c, 64<<10),
		bw:  bufio.NewWriterSize(c, 64<<10),
		rec: rec,
	}
}

// send writes one frame and flushes it to the connection.
func (fc *frameConn) send(ft byte, payload []byte) error {
	fc.sendMu.Lock()
	defer fc.sendMu.Unlock()
	return fc.sendLocked(ft, nil, payload, true)
}

// sendBuffered writes one frame into the write buffer without flushing —
// for runs of snapshot chunks where one flush per chunk would throttle
// bootstrap. Callers must finish with a flushing send.
func (fc *frameConn) sendBuffered(ft byte, payload []byte) error {
	fc.sendMu.Lock()
	defer fc.sendMu.Unlock()
	return fc.sendLocked(ft, nil, payload, false)
}

// sendFrontier sends a frame whose payload is the durable frontier
// followed by record: a records frame, or with no record a heartbeat. The
// record goes to the connection's writer as it is, never copied into a
// frame buffer.
func (fc *frameConn) sendFrontier(ft byte, durable uint64, record []byte) error {
	fc.sendMu.Lock()
	defer fc.sendMu.Unlock()
	binary.LittleEndian.PutUint64(fc.wlsn[:], durable)
	return fc.sendLocked(ft, fc.wlsn[:], record, true)
}

// sendLocked sends one frame whose payload is head followed by body.
func (fc *frameConn) sendLocked(ft byte, head, body []byte, flush bool) error {
	n := len(head) + len(body)
	if n > maxFramePayload {
		return fmt.Errorf("%w: oversized send (%d bytes)", ErrBadFrame, n)
	}
	if err := faultinject.Inject("repl/frame-send"); err != nil {
		return fmt.Errorf("replication: send: %w", err)
	}
	le := binary.LittleEndian
	le.PutUint32(fc.whdr[0:], uint32(n))
	fc.whdr[4] = ft
	le.PutUint32(fc.whdr[5:], crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, body))
	if _, err := fc.bw.Write(fc.whdr[:]); err != nil {
		return fmt.Errorf("replication: send: %w", err)
	}
	if _, err := fc.bw.Write(head); err != nil {
		return fmt.Errorf("replication: send: %w", err)
	}
	if _, err := fc.bw.Write(body); err != nil {
		return fmt.Errorf("replication: send: %w", err)
	}
	if flush {
		if err := fc.bw.Flush(); err != nil {
			return fmt.Errorf("replication: send: %w", err)
		}
	}
	if fc.rec != nil {
		fc.rec.FramesSent.Inc()
		fc.rec.BytesShipped.Add(uint64(n))
	}
	return nil
}

// recv reads one frame, validating length plausibility and payload CRC.
// The returned payload is a reused buffer valid until the next recv.
func (fc *frameConn) recv() (byte, []byte, error) {
	if err := faultinject.Inject("repl/frame-recv"); err != nil {
		return 0, nil, fmt.Errorf("replication: recv: %w", err)
	}
	if _, err := io.ReadFull(fc.br, fc.rhdr[:]); err != nil {
		return 0, nil, err // io.EOF at a frame boundary is the clean-close signal
	}
	le := binary.LittleEndian
	plen := le.Uint32(fc.rhdr[0:])
	ft := fc.rhdr[4]
	crc := le.Uint32(fc.rhdr[5:])
	if plen > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, plen)
	}
	payload, err := fc.readPayload(int(plen))
	if err != nil {
		return 0, nil, fmt.Errorf("replication: recv: truncated frame: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, fmt.Errorf("%w: frame checksum mismatch (type %d, %d bytes)", ErrBadFrame, ft, plen)
	}
	if fc.rec != nil {
		fc.rec.FramesRecv.Inc()
	}
	return ft, payload, nil
}

// readPayload reads an n-byte payload into the reused receive buffer. A
// full buffer doubles, from frameReadStart and never past n, before more
// is read, so a frame that ends early has cost about twice the bytes the
// peer sent, whatever length its header claimed.
func (fc *frameConn) readPayload(n int) ([]byte, error) {
	buf := fc.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), frameReadStart), n-len(buf)))
		}
		end := min(cap(buf), n)
		_, err := io.ReadFull(fc.br, buf[len(buf):end])
		fc.rbuf = buf
		if err != nil {
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// Close tears down the underlying connection. Safe to call concurrently
// with a blocked recv — that is how a promotion unparks its Run loop.
func (fc *frameConn) Close() error { return fc.c.Close() }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// helloMsg is the follower's opening frame.
type helloMsg struct {
	version uint16
	epoch   uint64
	haveLSN uint64
}

func encodeHello(m helloMsg) []byte {
	b := make([]byte, 18)
	le := binary.LittleEndian
	le.PutUint16(b[0:], m.version)
	le.PutUint64(b[2:], m.epoch)
	le.PutUint64(b[10:], m.haveLSN)
	return b
}

func decodeHello(p []byte) (helloMsg, error) {
	if len(p) != 18 {
		return helloMsg{}, fmt.Errorf("%w: hello is %d bytes, want 18", ErrBadFrame, len(p))
	}
	le := binary.LittleEndian
	return helloMsg{
		version: le.Uint16(p[0:]),
		epoch:   le.Uint64(p[2:]),
		haveLSN: le.Uint64(p[10:]),
	}, nil
}

// snapHeaderMsg announces a snapshot bootstrap: the follower must install
// the incoming snapshot (validated against crc/size) before the live
// stream starts at lastLSN.
type snapHeaderMsg struct {
	epoch   uint64
	lastLSN uint64
	shards  uint32
	size    int64
	crc     uint32
}

func encodeSnapHeader(m snapHeaderMsg) []byte {
	b := make([]byte, 32)
	le := binary.LittleEndian
	le.PutUint64(b[0:], m.epoch)
	le.PutUint64(b[8:], m.lastLSN)
	le.PutUint32(b[16:], m.shards)
	le.PutUint64(b[20:], uint64(m.size))
	le.PutUint32(b[28:], m.crc)
	return b
}

func decodeSnapHeader(p []byte) (snapHeaderMsg, error) {
	if len(p) != 32 {
		return snapHeaderMsg{}, fmt.Errorf("%w: snapshot header is %d bytes, want 32", ErrBadFrame, len(p))
	}
	le := binary.LittleEndian
	return snapHeaderMsg{
		epoch:   le.Uint64(p[0:]),
		lastLSN: le.Uint64(p[8:]),
		shards:  le.Uint32(p[16:]),
		size:    int64(le.Uint64(p[20:])),
		crc:     le.Uint32(p[28:]),
	}, nil
}

// startMsg opens the live stream: records follow from fromLSN, and the
// primary's durable frontier seeds the follower's lag gauge.
type startMsg struct {
	epoch   uint64
	fromLSN uint64
	durable uint64
}

func encodeStart(m startMsg) []byte {
	b := make([]byte, 24)
	le := binary.LittleEndian
	le.PutUint64(b[0:], m.epoch)
	le.PutUint64(b[8:], m.fromLSN)
	le.PutUint64(b[16:], m.durable)
	return b
}

func decodeStart(p []byte) (startMsg, error) {
	if len(p) != 24 {
		return startMsg{}, fmt.Errorf("%w: start is %d bytes, want 24", ErrBadFrame, len(p))
	}
	le := binary.LittleEndian
	return startMsg{
		epoch:   le.Uint64(p[0:]),
		fromLSN: le.Uint64(p[8:]),
		durable: le.Uint64(p[16:]),
	}, nil
}

// A frameRecords payload is u64 durable-frontier followed by one WAL
// record payload exactly as the primary's log wrote it (a Tailer returns
// it, wal.DecodeOps parses it); a frameHeartbeat payload is the u64 alone.
// The primary sends both with sendFrontier.

// decodeRecordsFrame parses a records frame, decoding its ops into ops'
// capacity.
func decodeRecordsFrame(p []byte, ops []core.EdgeOp) (durable, firstLSN uint64, out []core.EdgeOp, err error) {
	if len(p) < 8 {
		return 0, 0, ops, fmt.Errorf("%w: records frame is %d bytes, want >=8", ErrBadFrame, len(p))
	}
	firstLSN, out, err = wal.DecodeOps(p[8:], ops)
	if err != nil {
		return 0, 0, out, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return binary.LittleEndian.Uint64(p), firstLSN, out, nil
}

func encodeErrorFrame(code uint32, msg string) []byte {
	b := make([]byte, 4+len(msg))
	binary.LittleEndian.PutUint32(b[0:], code)
	copy(b[4:], msg)
	return b
}

func decodeErrorFrame(p []byte) (uint32, string, error) {
	if len(p) < 4 {
		return 0, "", fmt.Errorf("%w: error frame is %d bytes, want >=4", ErrBadFrame, len(p))
	}
	return binary.LittleEndian.Uint32(p[0:]), string(p[4:]), nil
}

// peerError converts a received frameError into the matching Go error.
func peerError(payload []byte) error {
	code, msg, err := decodeErrorFrame(payload)
	if err != nil {
		return err
	}
	if code == errCodeStaleEpoch {
		return fmt.Errorf("%w: %s", ErrStaleEpoch, msg)
	}
	return fmt.Errorf("replication: peer error: %s", msg)
}
