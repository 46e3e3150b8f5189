package replication

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// byteConn is a net.Conn over fixed bytes: reads drain r, writes land in
// w. Only what frameConn calls is implemented.
type byteConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (c *byteConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// frameDecoders decodes a payload as each message type and re-encodes
// what decodes: every message uses all its bytes, so a decoded payload
// must encode back to itself.
var frameDecoders = map[string]func(p []byte) ([]byte, error){
	"hello": func(p []byte) ([]byte, error) {
		m, err := decodeHello(p)
		return encodeHello(m), err
	},
	"snapshot header": func(p []byte) ([]byte, error) {
		m, err := decodeSnapHeader(p)
		return encodeSnapHeader(m), err
	},
	"start": func(p []byte) ([]byte, error) {
		m, err := decodeStart(p)
		return encodeStart(m), err
	},
	"error": func(p []byte) ([]byte, error) {
		code, msg, err := decodeErrorFrame(p)
		return encodeErrorFrame(code, msg), err
	},
}

// checkPayload runs every decoder on p: none may panic, a failure must be
// ErrBadFrame, and a success must round-trip. It returns how many decoded.
func checkPayload(tb testing.TB, p []byte) (decoded int) {
	tb.Helper()
	for name, decode := range frameDecoders {
		back, err := decode(p)
		switch {
		case err != nil && !errors.Is(err, ErrBadFrame):
			tb.Fatalf("%s: decode error %v is not ErrBadFrame", name, err)
		case err == nil && !bytes.Equal(back, p):
			tb.Fatalf("%s: %x decodes and re-encodes as %x", name, p, back)
		case err == nil:
			decoded++
		}
	}
	return decoded
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and to the
// handshake decoders. Nothing may panic; the reader fails only with
// ErrBadFrame or an I/O error, and every payload it returns is checked by
// the decoders too. The seeds are the encoders' framed output.
func FuzzFrameDecode(f *testing.F) {
	payloads := [][]byte{
		encodeHello(helloMsg{version: protocolVersion, epoch: 3, haveLSN: 1 << 40}),
		encodeSnapHeader(snapHeaderMsg{epoch: 2, lastLSN: 77, shards: 4, size: 1 << 20, crc: 0xdeadbeef}),
		encodeStart(startMsg{epoch: 2, fromLSN: 77, durable: 90}),
		encodeErrorFrame(errCodeStaleEpoch, "stale epoch 1 < 2"),
	}
	var stream bytes.Buffer
	for i, p := range payloads {
		if checkPayload(f, p) == 0 {
			f.Fatalf("seed %x decodes as no message", p)
		}
		c := &byteConn{r: bytes.NewReader(nil)}
		if err := newFrameConn(c, nil).send(byte(i+1), p); err != nil {
			f.Fatal(err)
		}
		f.Add(c.w.Bytes())
		stream.Write(c.w.Bytes())
	}
	f.Add(stream.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkPayload(t, data)
		fc := newFrameConn(&byteConn{r: bytes.NewReader(data)}, nil)
		for {
			_, p, err := fc.recv()
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("recv error %v is neither ErrBadFrame nor an I/O error", err)
				}
				return
			}
			checkPayload(t, p)
		}
	})
}
