// Package mem is a fixture stub mirroring the repo's internal/mem API
// surface; the pinnedleak analyzer matches by package name and method name,
// so only the signatures matter.
package mem

// Arena mirrors mem.Arena.
type Arena[T any] struct{ free [][]T }

// Get returns a buffer of length n.
func (a *Arena[T]) Get(n int) []T { return make([]T, n) }

// GetZeroed returns a zeroed buffer of length n.
func (a *Arena[T]) GetZeroed(n int) []T { return make([]T, n) }

// Put recycles a buffer.
func (a *Arena[T]) Put(s []T) {}
