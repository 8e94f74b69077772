package comm

// Wire protocol (version 3) of the socket transport: length-prefixed binary
// frames over TCP, little-endian throughout. Version 3 renumbered the
// collective kinds and dropped the float32 payload section of version 2 —
// every collective's wire type is binary16 — so a version-2 peer is refused
// at the handshake.
//
// Bootstrap frames, exchanged once per connection:
//
//	hello   (dialer → listener):  magic u32, version u8, pad[3], rank u32,
//	                              size u32, addr (u16 length + bytes)
//	welcome (listener → dialer):  magic u32, version u8, pad[3], size u32,
//	                              count u32, count × addr
//
// A rank's hello to rank 0 carries the address its own listener is bound to;
// rank 0's welcome carries the table of every rank's address (count = size).
// Between two peers the hello's address is empty and the welcome is a bare
// acknowledgement (count = 0).
//
// Collective frames share one 32-byte header:
//
//	off  0  u32  payload length (bytes following the header)
//	off  4  u8   frame type (contrib | reduced)
//	off  5  u8   collective kind
//	off  6  u16  root rank
//	off  8  u32  reserved, zero
//	off 12  u32  binary16 elements in the payload
//	off 16  u64  sequence number
//	off 24  u64  float64 bits (the sender's scalar contribution)
//
// The payload is the in-memory bytes of the sender's binary16 slice: header
// and payload leave in one vectored write straight from the caller's buffer,
// and the receiver reads the payload straight into arena staging — no
// per-element conversion on either side. Big-endian hosts swap bytes in
// place after a read and through a scratch copy before a write (hostSwaps),
// so the wire stays little-endian.
//
// A header is outside input: its count is checked against maxFrameElems and
// against the payload length before anything is sized from it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/mem"
	"repro/internal/tensor"
)

const (
	wireMagic   = 0x5A494E46 // "ZINF"
	wireVersion = 3

	// frameContrib carries a rank's input to a collective and is shipped when
	// the collective is issued; frameReduced carries an owner's reduced slice
	// (the second phase of an all-reduce) and is shipped when the owner
	// completes the reduction.
	frameContrib byte = 1
	frameReduced byte = 2
	frameTypes        = 2

	frameHdrLen = 32

	// maxFrameElems bounds the element count a frame header may claim
	// (2^28 binary16 = 512 MiB): the most a corrupt or hostile header can
	// make the reader stage.
	maxFrameElems = 1 << 28
	// maxAddrLen bounds a bootstrap address ("host:port").
	maxAddrLen = 255
)

// Framing errors surfaced by the reader goroutines (package-level so the hot
// read path never formats).
var (
	errBadFrameType = errors.New("comm: sock: unknown frame type")
	errBadFrameKind = errors.New("comm: sock: unknown collective kind")
	errFrameTooBig  = errors.New("comm: sock: frame element count exceeds the limit")
	errFrameLen     = errors.New("comm: sock: frame payload length does not match header count")
)

// hostSwaps is true on big-endian hosts, where payload bytes need swapping
// to and from the little-endian wire. It is a variable so that tests can
// force the fallback on a little-endian host.
var hostSwaps = tensor.BigEndianHost

// swapBytes reverses each 2-byte element of b in place: the big-endian
// fallback's only per-element loop.
//
//zinf:hotpath
func swapBytes(b []byte) {
	for i := 0; i+1 < len(b); i += 2 {
		b[i], b[i+1] = b[i+1], b[i]
	}
}

// frameHdr is a decoded collective-frame header.
type frameHdr struct {
	ftype byte
	kind  opKind
	root  int
	nh    int    // binary16 elements in the payload
	seq   uint64 // the sender's sequence number for this collective
	bits  uint64 // float64 bits of the sender's scalar
}

// wireLen returns the frame's total bytes on the wire.
//
//zinf:hotpath
func (h frameHdr) wireLen() int64 { return int64(frameHdrLen + h.nh*2) }

// putHdr encodes h into b[:frameHdrLen].
//
//zinf:hotpath
func putHdr(b []byte, h frameHdr) {
	binary.LittleEndian.PutUint32(b[0:], uint32(h.nh*2))
	b[4] = h.ftype
	b[5] = byte(h.kind)
	binary.LittleEndian.PutUint16(b[6:], uint16(h.root))
	binary.LittleEndian.PutUint32(b[8:], 0)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.nh))
	binary.LittleEndian.PutUint64(b[16:], h.seq)
	binary.LittleEndian.PutUint64(b[24:], h.bits)
}

// parseHdr decodes and validates b[:frameHdrLen]. Nothing is allocated from
// a header it rejects: a count above maxElems, a payload length that
// disagrees with the count and a non-zero reserved field are errors.
//
//zinf:hotpath
func parseHdr(b []byte, maxElems int) (frameHdr, error) {
	h := frameHdr{
		ftype: b[4],
		kind:  opKind(b[5]),
		root:  int(binary.LittleEndian.Uint16(b[6:])),
		seq:   binary.LittleEndian.Uint64(b[16:]),
		bits:  binary.LittleEndian.Uint64(b[24:]),
	}
	plen := uint64(binary.LittleEndian.Uint32(b[0:]))
	reserved := binary.LittleEndian.Uint32(b[8:])
	nh := uint64(binary.LittleEndian.Uint32(b[12:]))
	switch {
	case h.ftype != frameContrib && h.ftype != frameReduced:
		return frameHdr{}, errBadFrameType
	case h.kind >= opKindCount:
		return frameHdr{}, errBadFrameKind
	case nh > uint64(maxElems):
		return frameHdr{}, errFrameTooBig
	case plen != nh*2 || reserved != 0:
		return frameHdr{}, errFrameLen
	}
	h.nh = int(nh)
	return h, nil
}

// inFrame is one received frame: its header plus the payload staged in the
// transport's arena, released by the rank goroutine once consumed.
type inFrame struct {
	frameHdr
	h []tensor.Half
}

// readFrame reads one frame from r. hb is the caller's header scratch
// (frameHdrLen bytes, owned by the connection so that nothing escapes per
// frame); the payload is read straight into staging drawn from ha after the
// header has been validated against maxElems.
//
//zinf:hotpath
func readFrame(r io.Reader, hb []byte, ha *mem.Arena[tensor.Half], maxElems int) (inFrame, error) {
	if _, err := io.ReadFull(r, hb); err != nil {
		return inFrame{}, err
	}
	h, err := parseHdr(hb, maxElems)
	if err != nil {
		return inFrame{}, err
	}
	f := inFrame{frameHdr: h, h: ha.Get(h.nh)}
	pb := tensor.ByteView(f.h)
	if _, err = io.ReadFull(r, pb); err != nil {
		ha.Put(f.h)
		return inFrame{}, err
	}
	if hostSwaps {
		swapBytes(pb)
	}
	return f, nil
}

// Bootstrap handshake (see the package comment above). It runs once per
// connection, off the hot path.

func putAddr(b []byte, addr string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(addr)))
	return append(b, addr...)
}

func readAddr(c io.Reader) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(c, lb[:]); err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(lb[:]))
	if n > maxAddrLen {
		return "", fmt.Errorf("address of %d bytes exceeds the %d-byte limit", n, maxAddrLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readPreamble reads the 8 bytes every bootstrap frame starts with.
func readPreamble(c io.Reader, what string) error {
	var b [8]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return fmt.Errorf("comm: sock: reading %s: %w", what, err)
	}
	if binary.LittleEndian.Uint32(b[0:]) != wireMagic {
		return fmt.Errorf("comm: sock: bad %s magic (not a zinf worker?)", what)
	}
	if b[4] != wireVersion {
		return fmt.Errorf("comm: sock: %s has wire version %d, want %d", what, b[4], wireVersion)
	}
	return nil
}

func preamble() []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 64), wireMagic)
	return append(b, wireVersion, 0, 0, 0)
}

func writeHello(c net.Conn, rank, size int, addr string) error {
	if len(addr) > maxAddrLen {
		return fmt.Errorf("comm: sock: listen address %q exceeds %d bytes", addr, maxAddrLen)
	}
	b := binary.LittleEndian.AppendUint32(preamble(), uint32(rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(size))
	_, err := c.Write(putAddr(b, addr))
	return err
}

func readHello(c net.Conn) (rank, size int, addr string, err error) {
	if err := readPreamble(c, "hello"); err != nil {
		return 0, 0, "", err
	}
	var b [8]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, "", fmt.Errorf("comm: sock: reading hello: %w", err)
	}
	if addr, err = readAddr(c); err != nil {
		return 0, 0, "", fmt.Errorf("comm: sock: reading hello: %w", err)
	}
	return int(binary.LittleEndian.Uint32(b[0:])), int(binary.LittleEndian.Uint32(b[4:])), addr, nil
}

// writeWelcome acknowledges a hello; addrs is the address table (rank 0
// only) or nil.
func writeWelcome(c net.Conn, size int, addrs []string) error {
	b := binary.LittleEndian.AppendUint32(preamble(), uint32(size))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(addrs)))
	for _, a := range addrs {
		b = putAddr(b, a)
	}
	_, err := c.Write(b)
	return err
}

// readWelcome reads a welcome and returns its address table, which must be
// empty or cover exactly size ranks.
func readWelcome(c net.Conn, size int) ([]string, error) {
	if err := readPreamble(c, "welcome"); err != nil {
		return nil, err
	}
	var b [8]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return nil, fmt.Errorf("comm: sock: reading welcome: %w", err)
	}
	if got := int(binary.LittleEndian.Uint32(b[0:])); got != size {
		return nil, fmt.Errorf("comm: sock: peer has world size %d, this rank expected %d", got, size)
	}
	count := int(binary.LittleEndian.Uint32(b[4:]))
	if count != 0 && count != size {
		return nil, fmt.Errorf("comm: sock: welcome carries %d addresses for a world of %d", count, size)
	}
	addrs := make([]string, count)
	for i := range addrs {
		a, err := readAddr(c)
		if err != nil {
			return nil, fmt.Errorf("comm: sock: reading welcome address %d: %w", i, err)
		}
		addrs[i] = a
	}
	return addrs, nil
}
