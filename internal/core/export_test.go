package core

// flushAnnCompileMemo empties the annotation compile memo, as reaching
// its cap does, so a test can watch a memo miss on demand.
func flushAnnCompileMemo() {
	annCompileMemo.mu.Lock()
	annCompileMemo.m, annCompileMemo.bytes = nil, 0
	annCompileMemo.mu.Unlock()
}
