//go:build unix

package ami

import (
	"runtime"
	"syscall"
	"unsafe"
)

// newPageChunk maps n zeroed pages of anonymous memory outside the Go
// heap: the garbage collector neither scans them nor counts them towards
// its heap goal, and only the pages written so far are resident. The
// mapping is released once the chunk is unreachable. If the kernel refuses
// the mapping, the chunk comes from the heap instead.
func newPageChunk(n int) *pageChunk {
	size := n * int(unsafe.Sizeof(dayPage{}))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return &pageChunk{pages: make([]dayPage, n)}
	}
	c := &pageChunk{pages: unsafe.Slice((*dayPage)(unsafe.Pointer(&b[0])), n)}
	// A finalizer has no caller to report a failed unmap to; the worst
	// outcome is address space held until exit.
	runtime.SetFinalizer(c, func(*pageChunk) { _ = syscall.Munmap(b) })
	return c
}
