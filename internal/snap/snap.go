// Package snap implements Swift-Sim's versioned binary snapshot format:
// a little-endian, length-prefixed encoding used to serialize engine and
// module state at a quiescent cycle so runs can be checkpointed, resumed,
// and fanned out across configurations.
//
// The package is dependency-free by design — every simulated-hardware
// package (engine, smcore, cache, noc, dram, analytic) implements
// Stateful against it without import cycles. Decoding is hardened for
// untrusted input: the Reader carries a sticky error, every allocation is
// capped by the bytes actually remaining, and all failures are structured
// errors (never panics) so a corrupt checkpoint file degrades into a
// clean "cannot restore" result.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies a Swift-Sim snapshot stream.
const Magic = "SSIM"

// Version is the current snapshot format version. Bump on any
// incompatible layout change; LoadHeader rejects mismatches with
// ErrVersion so a skewed binary never misparses old state as new.
const Version uint32 = 2

// ErrCorrupt reports structurally invalid snapshot data.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// ErrTruncated reports snapshot data that ends mid-field.
var ErrTruncated = errors.New("snap: truncated snapshot")

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = errors.New("snap: unsupported snapshot version")

// ErrNotQuiescent reports an attempt to snapshot a module that still holds
// in-flight work (queued requests, occupied pipeline stages). Snapshots are
// only defined at quiescent points; callers should retry at the next kernel
// boundary.
var ErrNotQuiescent = errors.New("snap: module not quiescent")

// Stateful is a module whose simulation state can be serialized into a
// snapshot and restored from one. Implementations write and read the
// exact same field sequence; the engine frames each module's payload with
// its name and length, so a mismatch is detected, not silently misread.
type Stateful interface {
	// SnapSave appends the module's state to w. It must only be called at
	// a quiescent point (no in-flight requests or scheduled events); the
	// implementation may return an error through w via Fail when its
	// invariants do not hold.
	SnapSave(w *Writer)
	// SnapLoad restores the module's state from r. The module was just
	// assembled, so every field not read keeps its initial value.
	SnapLoad(r *Reader) error
}

// Writer builds a snapshot payload in memory. The zero value is ready to
// use. Writers never fail on I/O (they buffer); Fail records a semantic
// error (a module asked to snapshot non-quiescent state), surfaced by
// Err.
type Writer struct {
	buf []byte
	err error
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first semantic error recorded with Fail, if any.
func (w *Writer) Err() error { return w.err }

// Fail records a semantic error; the first one sticks.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// U64 appends a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// U32 appends a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes64 appends a length-prefixed byte slice.
func (w *Writer) Bytes64(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Digest appends a fixed-width 32-byte digest (no length prefix).
func (w *Writer) Digest(d [32]byte) { w.buf = append(w.buf, d[:]...) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// WriteTo writes the magic, the format version and the payload to out.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	var hdr [8]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	n, err := out.Write(hdr[:])
	if err != nil {
		return int64(n), err
	}
	m, err := out.Write(w.buf)
	return int64(n + m), err
}

// Reader decodes a snapshot payload with a sticky error: after the first
// failure every accessor returns the zero value, so decode sequences stay
// linear and check Err (or the per-call error helpers) at section
// boundaries.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over raw payload bytes (no header).
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// LoadHeader validates the magic and version of a full snapshot stream
// and returns a Reader positioned at the payload.
func LoadHeader(b []byte) (*Reader, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: %d-byte stream is shorter than the header", ErrTruncated, len(b))
	}
	if string(b[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	v := binary.LittleEndian.Uint32(b[4:8])
	if v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, Version)
	}
	return NewReader(b[8:]), nil
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// fail records the sticky error (first one wins).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf records a formatted semantic decode error (first one wins). Module
// SnapLoad implementations use it for invariant violations (for example a
// count that exceeds the assembled geometry).
func (r *Reader) Failf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(fmt.Errorf("%w: u64 at offset %d", ErrTruncated, r.pos))
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(fmt.Errorf("%w: u32 at offset %d", ErrTruncated, r.pos))
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// Bool reads a one-byte bool; any value other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.Remaining() < 1 {
		r.fail(fmt.Errorf("%w: bool at offset %d", ErrTruncated, r.pos))
		return false
	}
	b := r.buf[r.pos]
	r.pos++
	if b > 1 {
		r.fail(fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, b, r.pos-1))
		return false
	}
	return b == 1
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix and validates it against the remaining bytes
// (assuming at least one byte per element), so a corrupt length can never
// trigger a huge allocation.
func (r *Reader) Len() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCorrupt, n, r.Remaining()))
		return 0
	}
	return int(n)
}

// Count reads an element count for fixed-size elements of elemBytes bytes
// each, validating count*elemBytes against the remaining payload.
func (r *Reader) Count(elemBytes int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if n > uint64(r.Remaining())/uint64(elemBytes) {
		r.fail(fmt.Errorf("%w: count %d × %dB exceeds %d remaining bytes", ErrCorrupt, n, elemBytes, r.Remaining()))
		return 0
	}
	return int(n)
}

// BytesN reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) BytesN() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.pos:r.pos+n])
	r.pos += n
	return b
}

// Digest reads a fixed-width 32-byte digest.
func (r *Reader) Digest() [32]byte {
	var d [32]byte
	if r.err != nil {
		return d
	}
	if r.Remaining() < len(d) {
		r.fail(fmt.Errorf("%w: digest at offset %d", ErrTruncated, r.pos))
		return d
	}
	r.pos += copy(d[:], r.buf[r.pos:])
	return d
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}
