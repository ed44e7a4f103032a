package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ami"
	"repro/internal/meter"
	"repro/internal/timeseries"
)

// chaosBanner is the line the server child prints once it is accepting;
// the parent scans child stdout for it to learn the bound address.
const chaosBanner = "chaos-server: listening on "

// cmdChaos proves the durability contract on the real TCP path: it
// re-execs this binary as a WAL-backed sharded head-end, drives a meter
// fleet against it while injecting connection resets (some cutting a v3
// batch frame mid-body, some behind a rebind), partial writes, and
// slow-loris sessions, kills the server with SIGKILL mid-load, restarts
// it, and repeats. After the last kill it replays the WAL in-process and
// asserts the chaos invariant — every reading the clients saw acknowledged
// is present in the recovered store, and nothing from a cut frame is.
// Readings in flight when the process died may or may not survive;
// acknowledged ones must.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	meters := fs.Int("meters", 16, "meter fleet size")
	rounds := fs.Int("rounds", 3, "kill -9 / restart rounds")
	shards := fs.Int("shards", 2, "head-end shard count")
	batch := fs.Int("batch", 8, "readings per wire-v3 batch frame")
	roundLen := fs.Duration("round-len", 700*time.Millisecond, "load duration per round before the kill")
	walDir := fs.String("wal-dir", "", "WAL directory (empty = a temp dir, removed when the invariant holds)")
	walSync := fs.String("wal-sync", "interval", "WAL sync policy for the server child: always, interval, or off")
	resets := fs.Int("resets", 2, "concurrent connection-reset injectors (partial hello, or cut v3 batch frame with or without a rebind, then RST)")
	loris := fs.Int("loris", 2, "concurrent slow-loris sessions (one hello byte at a time)")
	serve := fs.Bool("serve", false, "run as the server child (internal; the harness re-execs itself with this flag)")
	addr := fs.String("addr", "127.0.0.1:0", "server child listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := ami.ParseWALSyncPolicy(*walSync)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if *serve {
		return chaosServe(*addr, *shards, *walDir, policy)
	}
	if *meters < 1 || *rounds < 1 || *shards < 1 || *batch < 1 {
		return fmt.Errorf("chaos: -meters, -rounds, -shards, and -batch must all be >= 1")
	}

	dir := *walDir
	ephemeral := false
	if dir == "" {
		dir, err = os.MkdirTemp("", "fdeta-chaos-")
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		ephemeral = true
	}

	h := &chaosHarness{
		meters:   *meters,
		shards:   *shards,
		batch:    *batch,
		roundLen: *roundLen,
		walDir:   dir,
		walSync:  policy,
		resets:   *resets,
		loris:    *loris,
		nextSlot: make([]int64, *meters),
		acked:    make(map[chaosKey]float64),
	}
	if err := h.run(*rounds); err != nil {
		return err
	}
	if ephemeral {
		_ = os.RemoveAll(dir)
	}
	return nil
}

// chaosServe is the server child: a WAL-backed sharded head-end that runs
// until it is killed (the harness path) or SIGTERMed (a tidy exit for
// manual use).
func chaosServe(addr string, shards int, walDir string, policy ami.WALSyncPolicy) error {
	if walDir == "" {
		return fmt.Errorf("chaos: -serve requires -wal-dir")
	}
	head := ami.NewSharded(shards,
		ami.WithWAL(walDir),
		ami.WithWALSync(policy),
		ami.WithDrainTimeout(2*time.Second))
	bound, err := head.Listen(addr)
	if err != nil {
		return fmt.Errorf("chaos: server: %w", err)
	}
	w := head.WALStats()
	fmt.Printf("%s%s (shards %d, wal %s, sync %s, recovered %d)\n",
		chaosBanner, bound, shards, walDir, policy, w.Recovered)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	return head.Close()
}

// chaosKey identifies one acknowledged reading.
type chaosKey struct {
	meterID string
	slot    int64
}

// chaosHarness holds the state that survives across kill/restart rounds:
// the per-meter slot cursors and the set of acknowledged readings.
type chaosHarness struct {
	meters, shards, batch int
	roundLen              time.Duration
	walDir                string
	walSync               ami.WALSyncPolicy
	resets, loris         int

	mu       sync.Mutex
	nextSlot []int64
	acked    map[chaosKey]float64

	cutFrames atomic.Int64 // v3 batch frames the reset injectors cut mid-body
}

// chaosKW derives a reading's value from its identity, so verification can
// check content, not just presence.
func chaosKW(m int, slot int64) float64 {
	return float64(m) + float64(slot%96)/4
}

func (h *chaosHarness) meterID(m int) string { return fmt.Sprintf("chaos-%04d", m) }

func (h *chaosHarness) run(rounds int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	for round := 1; round <= rounds; round++ {
		if err := h.round(exe, round); err != nil {
			return err
		}
	}
	return h.verify()
}

// round starts a fresh server child, drives load and chaos against it for
// roundLen, then kills it with SIGKILL mid-load.
func (h *chaosHarness) round(exe string, round int) error {
	cmd := exec.Command(exe, "chaos", "-serve",
		"-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(h.shards),
		"-wal-dir", h.walDir,
		"-wal-sync", string(h.walSync))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: starting server child: %w", err)
	}

	// The child prints its banner once the listener (and WAL recovery) is
	// up. Anything else on stdout is unexpected.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if len(line) > len(chaosBanner) && line[:len(chaosBanner)] == chaosBanner {
				rest := line[len(chaosBanner):]
				for i := 0; i < len(rest); i++ {
					if rest[i] == ' ' {
						rest = rest[:i]
						break
					}
				}
				addrCh <- rest
				return
			}
		}
		close(addrCh)
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return fmt.Errorf("chaos: round %d: server child exited before reporting its address", round)
		}
		addr = a
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("chaos: round %d: server child never reported its address", round)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for m := 0; m < h.meters; m++ {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.driveMeter(ctx, addr, m)
		}()
	}
	for i := 0; i < h.resets; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			injectResets(ctx, addr, &h.cutFrames)
		}()
	}
	for i := 0; i < h.loris; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			injectSlowLoris(ctx, addr)
		}()
	}

	// Mid-load, pull the plug: SIGKILL gives the server no chance to flush
	// anything it did not already make durable before acking.
	time.Sleep(h.roundLen)
	killErr := cmd.Process.Kill()
	cancel()
	wg.Wait()
	_ = cmd.Wait()
	if killErr != nil {
		return fmt.Errorf("chaos: round %d: kill: %w", round, killErr)
	}
	h.mu.Lock()
	ackedSoFar := len(h.acked)
	h.mu.Unlock()
	fmt.Printf("chaos: round %d: killed server on %s mid-load; %d readings acked so far\n",
		round, addr, ackedSoFar)
	return nil
}

// driveMeter sends batch frames as fast as the head-end acks them,
// redialing on every failure, until the round ends. Only acknowledged
// batches are recorded — an error mid-send makes no durability claim.
func (h *chaosHarness) driveMeter(ctx context.Context, addr string, m int) {
	id := h.meterID(m)
	var c *ami.Client
	defer func() {
		if c != nil {
			_ = c.Close()
		}
	}()
	for ctx.Err() == nil {
		if c == nil {
			var err error
			c, err = ami.DialBatch(addr, id, nil, 2*time.Second)
			if err != nil {
				c = nil
				sleepCtx(ctx, 20*time.Millisecond)
				continue
			}
		}
		h.mu.Lock()
		start := h.nextSlot[m]
		h.mu.Unlock()
		rs := make([]meter.Reading, h.batch)
		for i := range rs {
			slot := start + int64(i)
			rs[i] = meter.Reading{MeterID: id, Slot: timeseries.Slot(slot), KW: chaosKW(m, slot)}
		}
		if err := c.SendBatch(rs); err != nil {
			_ = c.Close()
			c = nil
			continue
		}
		h.mu.Lock()
		for _, r := range rs {
			h.acked[chaosKey{id, int64(r.Slot)}] = r.KW
		}
		h.nextSlot[m] = start + int64(h.batch)
		h.mu.Unlock()
	}
}

// chaosResetMeters are the meter IDs the reset injector's cut batch frames
// claim: the session's own meter, and the meter a rebind riding in the
// same write switches the session to. None of their frames is ever
// complete, so nothing may ever be stored for either.
var chaosResetMeters = [2]string{"chaos-reset", "chaos-reset-rebound"}

// injectResets loops abortive closes (SO_LINGER 0 → RST) at three depths,
// in turn: a half-written JSON hello, a wire-v3 batch frame cut mid-body
// after a valid hello exchange, and the same cut frame behind a rebind in
// one write — exercising the head-end's handling of peers that vanish
// mid-frame in both dialects and mid-way through a rebound batch.
func injectResets(ctx context.Context, addr string, cut *atomic.Int64) {
	for i := 0; ctx.Err() == nil; i++ {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return
		}
		if i%3 == 0 {
			_, _ = conn.Write([]byte(`{"type":"hello","hello":{"meter_`)) // partial frame
		} else if cutBatchFrame(conn, i%3 == 2) {
			cut.Add(1)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) // close() now sends RST, not FIN
		}
		_ = conn.Close()
		sleepCtx(ctx, 10*time.Millisecond)
	}
}

// cutBatchFrame opens a v3 session as the first reset meter and writes the
// first half of a batch frame, so the head-end has the header and part of
// the body when the connection dies. With rebind, a complete rebind frame
// to the second reset meter precedes the half frame in the same write. It
// reports whether the write went out.
func cutBatchFrame(conn net.Conn, rebind bool) bool {
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	codec := ami.NewCodec(conn)
	id := chaosResetMeters[0]
	hello := &ami.HelloMsg{MeterID: id, Version: ami.WireV3}
	if err := codec.Send(&ami.Envelope{Type: ami.TypeHello, Hello: hello}); err != nil {
		return false
	}
	if resp, err := codec.Recv(); err != nil || resp.Type != ami.TypeHello {
		return false
	}
	var out []byte
	if rebind {
		id = chaosResetMeters[1]
		out = ami.AppendRebindFrame(out, id)
	}
	frame := ami.AppendBatchFrame(nil, id,
		[]ami.BatchReading{{Slot: 0, KW: 1}, {Slot: 1, KW: 2}, {Slot: 2, KW: 3}}, nil)
	_, err := conn.Write(append(out, frame[:len(frame)/2]...))
	return err == nil
}

// injectSlowLoris holds a session open while dribbling a v3 hello one byte
// at a time — the idle-deadline path under real load.
func injectSlowLoris(ctx context.Context, addr string) {
	d := net.Dialer{Timeout: time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	defer func() { _ = conn.Close() }()
	frame := []byte(`{"type":"hello","hello":{"meter_id":"loris","ver":3}}` + "\n")
	for i := 0; i < len(frame); i++ {
		if _, err := conn.Write(frame[i : i+1]); err != nil {
			return
		}
		if !sleepCtx(ctx, 25*time.Millisecond) {
			return
		}
	}
}

// sleepCtx pauses for d or until ctx is done, whichever comes first,
// reporting whether the full pause elapsed. One timer per call, stopped on
// early wake — unlike time.After in a loop, which leaks a timer per
// iteration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// verify replays the WAL in-process after the final kill and asserts the
// chaos invariant: the acked set is a subset of the recovered store.
func (h *chaosHarness) verify() error {
	head := ami.NewSharded(h.shards, ami.WithWAL(h.walDir), ami.WithWALSync(h.walSync))
	if err := head.WALError(); err != nil {
		return fmt.Errorf("chaos: recovery: %w", err)
	}
	defer func() { _ = head.Close() }()

	h.mu.Lock()
	defer h.mu.Unlock()
	missing, wrong := 0, 0
	for key, kw := range h.acked {
		got, ok := head.Reading(key.meterID, timeseries.Slot(key.slot))
		switch {
		case !ok:
			missing++
		//lint:ignore floatcmp the wire's shortest-float JSON and the WAL's raw float64 bits both round-trip exactly; any difference is corruption
		case got != kw:
			wrong++
		}
	}
	w := head.WALStats()
	fmt.Printf("chaos: recovered %d readings from the WAL (%d torn tails truncated)\n",
		w.Recovered, w.TornTails)
	if missing > 0 || wrong > 0 {
		return fmt.Errorf("chaos: INVARIANT VIOLATED: %d acked readings missing, %d corrupted, of %d acked",
			missing, wrong, len(h.acked))
	}
	for _, id := range chaosResetMeters {
		if n := head.Count(id); n > 0 {
			return fmt.Errorf("chaos: INVARIANT VIOLATED: %d readings stored for %s from batch frames cut mid-body", n, id)
		}
	}
	fmt.Printf("chaos: %d v3 batch frames cut mid-body, none stored\n", h.cutFrames.Load())
	if len(h.acked) == 0 {
		return fmt.Errorf("chaos: no readings were acked; the harness never exercised the invariant (round-len too short?)")
	}
	fmt.Printf("chaos: invariant holds — all %d acked readings survived %s\n",
		len(h.acked), "kill -9, resets, partial writes, and slow-loris sessions")
	return nil
}
