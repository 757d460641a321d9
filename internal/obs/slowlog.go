// Slow-request log: one structured line per request whose end-to-end
// duration crosses a threshold. The line is plain logfmt so it greps
// and parses without a collector:
//
//	slow-request method=GET route=/v1/items/{id}/summary status=200 duration=152ms queue_wait=101ms shard=3
//
// shard is -1 when the serving store has no shard notion (stateless
// or unsharded). queue_wait is the time spent parked in an admission
// queue (0 for ungated routes and fast-path admissions).

package obs

import (
	"fmt"
	"log"
	"time"
)

// SlowLog emits the slow-request line. A nil *SlowLog, or a
// non-positive Threshold, disables logging; Record stays cheap either
// way (one branch plus one duration compare).
type SlowLog struct {
	// Threshold is the minimum end-to-end duration that gets logged.
	Threshold time.Duration
	// Logf receives the formatted line; log.Printf when nil.
	Logf func(format string, args ...any)
	// Slow counts emitted lines (optional; nil-safe).
	Slow *Counter
}

// Record logs one request if it crossed the threshold.
func (l *SlowLog) Record(method, route string, status int, duration, queueWait time.Duration, shard int) {
	if l == nil || l.Threshold <= 0 || duration < l.Threshold {
		return
	}
	l.Slow.Inc()
	logf := l.Logf
	if logf == nil {
		logf = log.Printf
	}
	logf("slow-request method=%s route=%s status=%d duration=%s queue_wait=%s shard=%d",
		method, route, status, fmtDuration(duration), fmtDuration(queueWait), shard)
}

// fmtDuration renders with millisecond-ish precision so lines stay
// readable (time.Duration.String emits full ns noise).
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}
