// Package pinned exercises the pinnedleak analyzer against the stub mem
// package: the error-return leak shape fires, the engine idioms (defer, nil
// guard, escape into an in-flight record) stay quiet.
package pinned

import (
	"errors"

	"mem"
)

var errBoom = errors.New("boom")

// LeakOnError is the historical bug shape: an error return between Get
// and Put leaks the buffer.
func LeakOnError(a *mem.Arena[float32], fail bool) error {
	s := a.Get(64) // want `arena buffer from Arena.Get is not released or handed off`
	if fail {
		return errBoom
	}
	a.Put(s)
	return nil
}

// Overwritten drops the first buffer by reusing its variable.
func Overwritten(a *mem.Arena[float32]) {
	buf := a.GetZeroed(8) // want `is overwritten at line \d+ before being released or handed off`
	buf = a.Get(8)
	a.Put(buf)
}

// Balanced releases on every path via defer.
func Balanced(a *mem.Arena[float32], fail bool) error {
	buf := a.Get(8)
	defer a.Put(buf)
	if fail {
		return errBoom
	}
	return nil
}

// NilGuarded holds nothing on the arm where the buffer is nil.
func NilGuarded(a *mem.Arena[float32], n int) error {
	buf := a.Get(n)
	if buf == nil {
		return errBoom
	}
	a.Put(buf)
	return nil
}

type inflight struct{ buf []float32 }

// Escapes hands the buffer off into an in-flight record; ownership moves
// with it.
func Escapes(a *mem.Arena[float32], dst *inflight) {
	buf := a.Get(8)
	*dst = inflight{buf: buf}
}

// Returned transfers ownership to the caller.
func Returned(a *mem.Arena[float32]) []float32 {
	buf := a.Get(8)
	return buf
}

// SlicedRelease releases through a reslice of the tracked buffer.
func SlicedRelease(a *mem.Arena[float32], n int) {
	buf := a.Get(8)
	a.Put(buf[:n])
}

// CrashPath may keep the buffer: the process is going down.
func CrashPath(a *mem.Arena[float32], fail bool) {
	buf := a.Get(8)
	if fail {
		panic("fatal")
	}
	a.Put(buf)
}
