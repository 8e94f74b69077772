package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/tensor"
)

// wireFrame renders a frame the way send does: header, then the float32 and
// binary16 sections as their in-memory bytes (swapped on a big-endian host).
func wireFrame(h frameHdr, fs []float32, hs []tensor.Half) []byte {
	h.nf, h.nh = len(fs), len(hs)
	b := make([]byte, frameHdrLen, h.wireLen())
	putHdr(b, h)
	b = append(b, f32Bytes(fs)...)
	b = append(b, halfBytes(hs)...)
	if hostSwaps {
		swapBytes(b[frameHdrLen:frameHdrLen+4*len(fs)], 4)
		swapBytes(b[frameHdrLen+4*len(fs):], 2)
	}
	return b
}

func readOne(data []byte, maxElems int) (inFrame, *mem.Arena[float32], *mem.Arena[tensor.Half], error) {
	fa, ha := mem.NewArena[float32](), mem.NewArena[tensor.Half]()
	var hb [frameHdrLen]byte
	f, err := readFrame(bytes.NewReader(data), hb[:], fa, ha, maxElems)
	return f, fa, ha, err
}

func TestWireFrameRoundTrip(t *testing.T) {
	h := frameHdr{ftype: frameReduced, kind: opAllReduceHalf, root: 513, seq: 1<<40 + 7, bits: 0x400921FB54442D18}
	fs := []float32{1.5, -2.25, 3e-7}
	hs := []tensor.Half{0x3C00, 0xC300, 0x7BFF, 0x0001}
	f, _, _, err := readOne(wireFrame(h, fs, hs), maxFrameElems)
	if err != nil {
		t.Fatal(err)
	}
	h.nf, h.nh = len(fs), len(hs)
	if f.frameHdr != h {
		t.Errorf("header %+v, want %+v", f.frameHdr, h)
	}
	for i := range fs {
		if f.f[i] != fs[i] {
			t.Errorf("f[%d] = %g, want %g", i, f.f[i], fs[i])
		}
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
	b := wireFrame(frameHdr{ftype: frameContrib}, []float32{1}, []tensor.Half{0x3C00})
	if got := binary.LittleEndian.Uint32(b[frameHdrLen:]); got != 0x3F800000 {
		t.Errorf("float32 1.0 on the wire = %#x", got)
	}
	if got := binary.LittleEndian.Uint16(b[frameHdrLen+4:]); got != 0x3C00 {
		t.Errorf("half 1.0 on the wire = %#x", got)
	}
}

func TestSwapBytes(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	swapBytes(b, 4)
	if !bytes.Equal(b, []byte{4, 3, 2, 1, 8, 7, 6, 5}) {
		t.Errorf("width 4: %v", b)
	}
	swapBytes(b, 2)
	if !bytes.Equal(b, []byte{3, 4, 1, 2, 7, 8, 5, 6}) {
		t.Errorf("width 2: %v", b)
	}
}

// TestWireRejectsBeforeStaging: a header whose counts exceed the limit, or
// whose payload length disagrees with them, is refused before any staging
// is drawn — at the limit the transport really runs with.
func TestWireRejectsBeforeStaging(t *testing.T) {
	hdr := func(plen, nf, nh uint32) []byte {
		b := wireFrame(frameHdr{ftype: frameContrib, kind: opAllGather}, nil, nil)
		binary.LittleEndian.PutUint32(b[0:], plen)
		binary.LittleEndian.PutUint32(b[8:], nf)
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
		{"f32 count over the limit", hdr(0, maxFrameElems+1, 0), errFrameTooBig},
		{"half count over the limit", hdr(0, 0, 0xFFFFFFFF), errFrameTooBig},
		{"4 GiB payload, no counts", hdr(0xFFFFFFFF, 0, 0), errFrameLen},
		{"counts without payload", hdr(0, 4, 4), errFrameLen},
		{"unknown frame type", badType, errBadFrameType},
		{"unknown kind", badKind, errBadFrameKind},
	} {
		_, fa, ha, err := readOne(tc.data, maxFrameElems)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		fg, _, _ := fa.Stats()
		hg, _, _ := ha.Stats()
		if fg+hg != 0 {
			t.Errorf("%s: %d staging buffers drawn for a rejected header", tc.name, fg+hg)
		}
	}
}

// FuzzWireFrame throws arbitrary bytes at the frame reader under a tight
// element limit: it must never panic, never allocate more than the limit
// allows, and anything it accepts must be exactly the frame that re-encodes
// to the bytes it consumed.
func FuzzWireFrame(f *testing.F) {
	const maxElems = 1 << 10
	const allocBound = maxElems*(4+2)*2 + 16<<10 // both sections at their power-of-two class, plus the arenas themselves
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opBarrier, seq: 3}, nil, nil))
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opAllGather, seq: 1}, []float32{1, 2, 3}, nil))
	f.Add(wireFrame(frameHdr{ftype: frameReduced, kind: opAllReduceHalf, root: 2}, nil, []tensor.Half{1, 2, 3, 4, 5}))
	f.Add(wireFrame(frameHdr{ftype: frameContrib, kind: opAllReduceScalar, bits: 1 << 62}, nil, nil)[:frameHdrLen-1])
	huge := wireFrame(frameHdr{ftype: frameContrib}, nil, nil)
	binary.LittleEndian.PutUint32(huge[0:], 0xFFFFFFFC)
	binary.LittleEndian.PutUint32(huge[8:], 0x3FFFFFFF)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fr, _, _, err := readOne(data, maxElems)
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > allocBound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), got, allocBound)
		}
		if err != nil {
			return
		}
		if fr.nf != len(fr.f) || fr.nh != len(fr.h) || fr.nf > maxElems || fr.nh > maxElems {
			t.Fatalf("accepted frame claims %d/%d elements, staged %d/%d", fr.nf, fr.nh, len(fr.f), len(fr.h))
		}
		if again := wireFrame(fr.frameHdr, fr.f, fr.h); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("accepted frame does not re-encode to the bytes consumed")
		}
	})
}
