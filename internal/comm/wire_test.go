package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/tensor"
)

// wireFrame renders a frame the way send does: header, then the binary16
// payload as its in-memory bytes (swapped on a big-endian host).
func wireFrame(h frameHdr, hs []tensor.Half) []byte {
	h.nh = len(hs)
	b := make([]byte, frameHdrLen, h.wireLen())
	putHdr(b, h)
	b = append(b, tensor.ByteView(hs)...)
	if hostSwaps {
		swapBytes(b[frameHdrLen:])
	}
	return b
}

func readOne(data []byte, maxElems int) (inFrame, *mem.Arena[tensor.Half], error) {
	ha := mem.NewArena[tensor.Half]()
	var hb [frameHdrLen]byte
	f, err := readFrame(bytes.NewReader(data), hb[:], ha, maxElems)
	return f, ha, err
}

func TestWireFrameRoundTrip(t *testing.T) {
	h := frameHdr{ftype: frameReduced, kind: opAllReduceHalf, root: 513, seq: 1<<40 + 7, bits: 0x400921FB54442D18}
	hs := []tensor.Half{0x3C00, 0xC300, 0x7BFF, 0x0001}
	f, _, err := readOne(wireFrame(h, hs), maxFrameElems)
	if err != nil {
		t.Fatal(err)
	}
	h.nh = len(hs)
	if f.frameHdr != h {
		t.Errorf("header %+v, want %+v", f.frameHdr, h)
	}
	for i := range hs {
		if f.h[i] != hs[i] {
			t.Errorf("h[%d] = %#x, want %#x", i, f.h[i], hs[i])
		}
	}
}

// TestWireLittleEndianOnTheWire pins the byte order: the payload of a frame
// is little-endian whatever the host is.
func TestWireLittleEndianOnTheWire(t *testing.T) {
	b := wireFrame(frameHdr{ftype: frameContrib}, []tensor.Half{0x3C00})
	if got := binary.LittleEndian.Uint16(b[frameHdrLen:]); got != 0x3C00 {
		t.Errorf("half 1.0 on the wire = %#x", got)
	}
}

func TestSwapBytes(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6}
	swapBytes(b)
	if !bytes.Equal(b, []byte{2, 1, 4, 3, 6, 5}) {
		t.Errorf("swapped to %v", b)
	}
}

// TestWireRejectsBeforeStaging: a header whose count exceeds the limit, or
// whose payload length disagrees with it, is refused before any staging is
// drawn — at the limit the transport really runs with.
func TestWireRejectsBeforeStaging(t *testing.T) {
	hdr := func(plen, reserved, nh uint32) []byte {
		b := wireFrame(frameHdr{ftype: frameContrib, kind: opAllGatherHalfDecode}, nil)
		binary.LittleEndian.PutUint32(b[0:], plen)
		binary.LittleEndian.PutUint32(b[8:], reserved)
		binary.LittleEndian.PutUint32(b[12:], nh)
		return b
	}
	badType := hdr(0, 0, 0)
	badType[4] = 9
	badKind := hdr(0, 0, 0)
	badKind[5] = byte(opKindCount)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"count over the limit", hdr(0, 0, maxFrameElems+1), errFrameTooBig},
		{"count at the type's limit", hdr(0, 0, 0xFFFFFFFF), errFrameTooBig},
		{"4 GiB payload, no count", hdr(0xFFFFFFFF, 0, 0), errFrameLen},
		{"count without payload", hdr(0, 0, 4), errFrameLen},
		{"version-2 float32 count in the reserved field", hdr(16, 4, 0), errFrameLen},
		{"unknown frame type", badType, errBadFrameType},
		{"unknown kind", badKind, errBadFrameKind},
	} {
		_, ha, err := readOne(tc.data, maxFrameElems)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		if got, _, _ := ha.Stats(); got != 0 {
			t.Errorf("%s: %d staging buffers drawn for a rejected header", tc.name, got)
		}
	}
}

// TestWireRejectsOlderVersion: the collective kinds were renumbered in
// version 3, so a version-2 peer must be refused at the handshake — with the
// version error — rather than have its frames dispatched as other kinds.
func TestWireRejectsOlderVersion(t *testing.T) {
	v2 := func(bootstrap []byte) []byte {
		bootstrap[4] = 2
		return bootstrap
	}
	hello := binary.LittleEndian.AppendUint32(preamble(), 1)        // rank
	hello = putAddr(binary.LittleEndian.AppendUint32(hello, 2), "") // size, addr
	welcome := binary.LittleEndian.AppendUint32(preamble(), 2)      // size
	welcome = binary.LittleEndian.AppendUint32(welcome, 0)          // no address table
	for _, tc := range []struct {
		name string
		data []byte
		read func(c net.Conn) error
	}{
		{"hello", v2(hello), func(c net.Conn) error { _, _, _, err := readHello(c); return err }},
		{"welcome", v2(welcome), func(c net.Conn) error { _, err := readWelcome(c, 2); return err }},
	} {
		here, there := net.Pipe()
		go func() {
			there.Write(tc.data)
			there.Close()
		}()
		err := tc.read(here)
		here.Close()
		if err == nil || !strings.Contains(err.Error(), "wire version 2, want 3") {
			t.Errorf("version-2 %s: error %v, want the version error", tc.name, err)
		}
	}
}

// FuzzWireFrame throws arbitrary bytes at the frame reader under a tight
// element limit: it must never panic, never allocate more than the limit
// allows, and anything it accepts must be exactly the frame that re-encodes
// to the bytes it consumed.
func FuzzWireFrame(f *testing.F) {
	const maxElems = 1 << 10
	const allocBound = maxElems*2*2 + 16<<10 // the payload at its power-of-two class, plus the arena itself
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opAllReduceMax, seq: 3}, nil))
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opAllGatherHalfDecode, seq: 1}, []tensor.Half{1, 2, 3}))
	f.Add(wireFrame(frameHdr{ftype: frameReduced, kind: opAllReduceHalf, root: 2}, []tensor.Half{1, 2, 3, 4, 5}))
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opAllReduceScalar, bits: 1 << 62}, nil)[:frameHdrLen-1])
	huge := wireFrame(frameHdr{ftype: frameContrib}, nil)
	binary.LittleEndian.PutUint32(huge[0:], 0xFFFFFFFE)
	binary.LittleEndian.PutUint32(huge[12:], 0x7FFFFFFF)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fr, _, err := readOne(data, maxElems)
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > allocBound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), got, allocBound)
		}
		if err != nil {
			return
		}
		if fr.nh != len(fr.h) || fr.nh > maxElems {
			t.Fatalf("accepted frame claims %d elements, staged %d", fr.nh, len(fr.h))
		}
		if again := wireFrame(fr.frameHdr, fr.h); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("accepted frame does not re-encode to the bytes consumed")
		}
	})
}
