//go:build !unix

package ami

// newPageChunk takes n zeroed pages from the heap on platforms without
// syscall.Mmap. dayPage holds no pointer, so the collector does not scan
// them, but it does count them towards its heap goal.
func newPageChunk(n int) *pageChunk { return &pageChunk{pages: make([]dayPage, n)} }
