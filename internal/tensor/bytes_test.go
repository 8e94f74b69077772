package tensor

import (
	"bytes"
	"testing"
)

// The views alias the buffer: a value stored through one is the buffer's
// bytes, and on a little-endian host those are exactly the serialized
// little-endian bytes.
func TestViewsAliasTheBuffer(t *testing.T) {
	b := make([]byte, 16)
	vals := []float32{1.5, -2, 0, 3.25}
	copy(F32View(b), vals)
	le := make([]byte, 16)
	F32ToBytes(le, vals)
	if !BigEndianHost && !bytes.Equal(b, le) {
		t.Fatalf("F32View bytes %x, little-endian serialization %x", b, le)
	}
	got := make([]float32, 4)
	copy(got, F32View(b))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: read back %v, stored %v", i, got[i], vals[i])
		}
	}

	h := HalfView(b[:8])
	h[2] = HalfFromFloat32(0.5)
	if &ByteView(h)[0] != &b[0] || len(ByteView(h)) != 8 {
		t.Fatal("ByteView of a HalfView is not the original memory")
	}
	if HalfView(nil) != nil || F32View(b[:0]) != nil {
		t.Fatal("empty buffers must view as nil")
	}
}

// A view of a buffer whose length or start does not fit the element type
// panics rather than reading across element boundaries.
func TestViewsRejectMisalignedOrOddBuffers(t *testing.T) {
	b := make([]byte, 16) // heap buffers of this size are 8-byte aligned
	for _, tc := range []struct {
		name string
		view func()
	}{
		{"f32 odd length", func() { F32View(b[:6]) }},
		{"f32 misaligned", func() { F32View(b[2:6]) }},
		{"half odd length", func() { HalfView(b[:3]) }},
		{"half misaligned", func() { HalfView(b[1:3]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("view did not panic")
				}
			}()
			tc.view()
		})
	}
}
