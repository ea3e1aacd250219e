//go:build !linux

package main

import "time"

// Off Linux the benchmark still builds and runs; the three figures read
// from the kernel are reported as unknown.
func cpuTime() time.Duration   { return 0 }
func kernelRelease() string    { return "unknown" }
func fsType(dir string) string { return "unknown" }
