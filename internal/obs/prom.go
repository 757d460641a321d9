// Prometheus text-format exposition (format version 0.0.4). The
// renderer walks a point-in-time snapshot of the registry: families
// sorted by name, children sorted by label body, histograms expanded
// into the cumulative _bucket/_sum/_count triple. Individual values
// are read with atomic loads, so scraping is safe concurrently with
// the hot path and never blocks it — a scrape may observe a bucket
// increment before the matching sum update (and vice versa), which
// Prometheus tolerates by design.

package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample writes one `name{labels} value` line, merging extra
// label pairs (the histogram le) with the child's interned body.
func writeSample(w *bufio.Writer, name, labelBody, extra, value string) {
	w.WriteString(name)
	if labelBody != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labelBody)
		if labelBody != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// WritePrometheus renders every registered family in text exposition
// format. A nil registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.typ.String())
		bw.WriteByte('\n')
		for _, c := range f.sortedChildren() {
			switch f.typ {
			case counterType:
				writeSample(bw, f.name, c.labelBody, "", strconv.FormatUint(c.counter.Value(), 10))
			case gaugeType:
				writeSample(bw, f.name, c.labelBody, "", strconv.FormatInt(c.gauge.Value(), 10))
			case histogramType:
				h := c.hist
				var cum uint64
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					writeSample(bw, f.name+"_bucket", c.labelBody,
						`le="`+formatFloat(ub)+`"`, strconv.FormatUint(cum, 10))
				}
				cum += h.counts[len(h.upper)].Load()
				writeSample(bw, f.name+"_bucket", c.labelBody, `le="+Inf"`, strconv.FormatUint(cum, 10))
				writeSample(bw, f.name+"_sum", c.labelBody, "", formatFloat(h.Sum()))
				writeSample(bw, f.name+"_count", c.labelBody, "", strconv.FormatUint(cum, 10))
			}
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the exposition on GET/HEAD.
// Safe to mount on any mux, including the pprof listener.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		r.WritePrometheus(w)
	})
}
