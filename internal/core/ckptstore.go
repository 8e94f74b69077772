package core

import (
	"repro/internal/mem"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// cpuCheckpointStore offloads activation checkpoints to CPU memory (paper
// Sec. 5.1.2): tensors are serialized to byte buffers and deserialized
// exactly on retrieval, so offloading never
// changes numerics. Blob bytes and staging scratch cycle through the
// engine's arenas, handles through a free list, and shape slices are reused
// across occupancies of a slot, so steady-state Put is allocation-free (Get
// still allocates the returned tensor, which the caller owns).
type cpuCheckpointStore struct {
	tracker *mem.Tracker
	bytes   *mem.Arena[byte]
	f32     *mem.Arena[float32]

	blobs []ckptBlob
	free  []int // vacant slots in blobs

	bytesOffloaded int64
}

type ckptBlob struct {
	data  []byte
	shape []int
	live  bool
}

func newCPUCheckpointStore(t *mem.Tracker, sc zero.Scratch) *cpuCheckpointStore {
	return &cpuCheckpointStore{tracker: t, bytes: sc.Bytes, f32: sc.F32}
}

// Put implements module.CheckpointStore.
func (s *cpuCheckpointStore) Put(t *tensor.Tensor) int {
	n := t.Len()
	b := s.bytes.Get(4 * n)
	tmp := s.f32.Get(n)
	t.Read(tmp)
	tensor.F32ToBytes(b, tmp)
	s.f32.Put(tmp)
	var h int
	if len(s.free) > 0 {
		h = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		h = len(s.blobs)
		s.blobs = append(s.blobs, ckptBlob{})
	}
	blob := &s.blobs[h]
	blob.data = b
	blob.shape = append(blob.shape[:0], t.Shape()...)
	blob.live = true
	s.bytesOffloaded += int64(len(b))
	s.tracker.Add(mem.CatActCkpt, int64(len(b)))
	return h
}

// Get implements module.CheckpointStore.
func (s *cpuCheckpointStore) Get(h int) *tensor.Tensor {
	if h < 0 || h >= len(s.blobs) || !s.blobs[h].live {
		panic("core: unknown checkpoint handle")
	}
	blob := &s.blobs[h]
	out := tensor.New(tensor.FP32, blob.shape...)
	tmp := s.f32.Get(out.Len())
	tensor.F32FromBytes(tmp, blob.data)
	out.Write(tmp)
	s.f32.Put(tmp)
	s.drop(h)
	return out
}

// drop vacates slot h, recycling its bytes.
func (s *cpuCheckpointStore) drop(h int) {
	blob := &s.blobs[h]
	s.tracker.Add(mem.CatActCkpt, -int64(len(blob.data)))
	s.bytes.Put(blob.data)
	blob.data = nil
	blob.live = false
	s.free = append(s.free, h)
}

// Reset implements module.CheckpointStore.
func (s *cpuCheckpointStore) Reset() {
	for h := range s.blobs {
		if s.blobs[h].live {
			s.drop(h)
		}
	}
}
