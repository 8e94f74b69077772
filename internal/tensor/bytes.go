package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Byte views and serialization helpers for moving fp32 optimizer states and
// fp16 parameter shards through byte-addressed storage (pinned staging
// buffers, NVMe regions, socket frames, checkpoint files).
//
// The views are the repository's one unsafe reinterpretation site: HalfView
// and F32View read a byte buffer's memory in place as binary16 or float32
// values, ByteView reads a binary16 slice's memory as bytes. A view holds
// values in host byte order and copies nothing, so staging buffers can be
// computed on where they lie; data that leaves the process in a
// little-endian format (a file, the wire) goes through F32ToBytes /
// HalfToBytes instead, or is swapped where BigEndianHost says so.

// BigEndianHost reports whether this host stores multi-byte values
// big-endian, i.e. whether a view's bytes differ from the little-endian
// file and wire formats.
var BigEndianHost = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// HalfView returns b's memory as binary16 values in host byte order, with
// no copy. It panics if len(b) is odd or b is not 2-byte aligned.
//
//zinf:hotpath
func HalfView(b []byte) []Half { return view[Half](b) }

// F32View returns b's memory as float32 values in host byte order, with no
// copy. It panics if len(b) is not a multiple of 4 or b is not 4-byte
// aligned.
//
//zinf:hotpath
func F32View(b []byte) []float32 { return view[float32](b) }

// ByteView returns h's memory as bytes (2 per value, host byte order), with
// no copy.
//
//zinf:hotpath
func ByteView(h []Half) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(h))), len(h)*HalfBytes)
}

//zinf:hotpath
func view[T Half | float32](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	p := unsafe.Pointer(unsafe.SliceData(b))
	if len(b)%size != 0 || uintptr(p)%uintptr(size) != 0 {
		panic(fmt.Sprintf("tensor: %d-byte view of a %d-byte buffer at %p: odd length or misaligned", size, len(b), p))
	}
	return unsafe.Slice((*T)(p), len(b)/size)
}

// F32ToBytes serializes src into b (4 bytes per value, little endian).
// It panics if b is shorter than 4*len(src).
//
//zinf:hotpath
func F32ToBytes(b []byte, src []float32) {
	if len(src) == 0 {
		return
	}
	_ = b[4*len(src)-1]
	for i, f := range src {
		u := math.Float32bits(f)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
}

// F32FromBytes deserializes b into dst. It panics if b is shorter than
// 4*len(dst).
//
//zinf:hotpath
func F32FromBytes(dst []float32, b []byte) {
	if len(dst) == 0 {
		return
	}
	_ = b[4*len(dst)-1]
	for i := range dst {
		u := uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
		dst[i] = math.Float32frombits(u)
	}
}
