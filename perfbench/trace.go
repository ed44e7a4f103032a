package main

import (
	"bufio"
	"os"
	"strconv"

	"repro/internal/serve"
)

// Span file format (README.md, "Span file"): one CSV line per span,
//
//	trace,span,parent,meter,slot,start_ns,end_ns
//
// trace is the schedule index of the frame the span belongs to (-1 for the
// server's set-up), span and parent are span names within that trace,
// meter is the meter index and slot the global slot (-1 where neither
// applies), and start_ns/end_ns are wall-clock nanoseconds.
const spanHeader = "trace,span,parent,meter,slot,start_ns,end_ns\n"

// spanWriter formats spans onto a buffered file.
type spanWriter struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
}

func openSpans(path string, truncate bool) (*spanWriter, error) {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flag = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	s := &spanWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}
	if truncate {
		if _, err := s.w.WriteString(spanHeader); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *spanWriter) emit(trace int64, span, parent string, meter, slot, start, end int64) {
	b := strconv.AppendInt(s.buf[:0], trace, 10)
	b = append(b, ',')
	b = append(b, span...)
	b = append(b, ',')
	b = append(b, parent...)
	b = append(b, ',')
	b = strconv.AppendInt(b, meter, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, slot, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, start, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, end, 10)
	b = append(b, '\n')
	s.buf = b
	_, _ = s.w.Write(b) // a write error resurfaces from Flush in close
}

// close flushes and closes the file, reporting the first error.
func (s *spanWriter) close() error {
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeServerSpans starts the span file with the server child's spans:
// its set-up steps, each frame's hand-off into serve, each observation and
// each alert-log write.
func writeServerSpans(srv *server, events []serve.AlertEvent) error {
	f, timed, handoff, sinkNS, alerts := srv.f, srv.timed, srv.handoff, srv.sinkNS, srv.alerts
	s, err := openSpans(f.sp.SpanFile, true)
	if err != nil {
		return err
	}
	for _, p := range srv.steps {
		s.emit(-1, p.Name, "", -1, -1, p.Start, p.End)
	}
	n, batch := f.sp.Meters, f.sp.Batch
	for k, h := range handoff {
		if h == 0 {
			continue
		}
		m, j0 := k%n, (k/n)*batch
		s.emit(int64(k), "serve.sink", "ami.send", int64(m), int64(f.liveStart+j0), h, h+sinkNS[k])
	}
	// Observation spans are written for the verdict-sample consumers only:
	// one per reading would make the file hundreds of megabytes. The
	// detect.* metrics still time every observation.
	for m, ts := range timed {
		if m%f.sp.Stride != 0 {
			continue
		}
		for j, t := range ts.start {
			s.emit(int64(f.frameIndex(m, j)), "detect.observe", "serve.sink", int64(m), int64(f.liveStart+j), t, t+ts.dur[j])
		}
	}
	for i, e := range events {
		m, ok := f.index[e.Consumer]
		if !ok || i >= len(alerts.ends) {
			continue
		}
		s.emit(int64(f.frameIndex(m, int(e.Slot)-f.liveStart)), "serve.alert_write", "detect.observe",
			int64(m), e.Slot, alerts.starts[i], alerts.ends[i])
	}
	return s.close()
}

// appendGeneratorSpans adds the generator's spans to the span file: the
// paper evaluation's steps, then per frame the whole frame from its due
// time to its ack, the Bind and the SendBatch.
func appendGeneratorSpans(path string, evalSteps []phase, g *generator) error {
	s, err := openSpans(path, false)
	if err != nil {
		return err
	}
	for _, p := range evalSteps {
		s.emit(-1, p.Name, "", -1, -1, p.Start, p.End)
	}
	n, batch := g.f.sp.Meters, g.f.sp.Batch
	for k, r := range g.recs {
		if !r.ok {
			continue
		}
		m, slot := int64(k%n), int64(g.f.liveStart+(k/n)*batch)
		s.emit(int64(k), "gen.frame", "", m, slot, g.due(k), r.ack)
		s.emit(int64(k), "ami.bind", "gen.frame", m, slot, r.start, r.bound)
		s.emit(int64(k), "ami.send", "gen.frame", m, slot, r.bound, r.ack)
	}
	return s.close()
}
