package main

import "testing"

// BenchmarkCold runs every row osars-bench writes to
// BENCH_coldpath.json as a sub-benchmark under its row name, so
//
//	go test -run '^$' -bench 'Cold/ColdAnnotateItem' -cpuprofile cpu.out ./cmd/osars-bench
//
// profiles exactly the body behind that row. Each body runs as the
// harness runs it: allocations reported, timer reset after setup.
func BenchmarkCold(b *testing.B) {
	for _, bm := range benches(buildFixture()) {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			bm.fn(b)
		})
	}
}
