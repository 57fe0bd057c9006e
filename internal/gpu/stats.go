package gpu

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// direction is the host's role in a transfer round: receiving, sending,
// or (a peer round) off the path.
type direction int

const (
	dirD2H direction = iota
	dirH2D
	dirPeer
)

// kind names the round in the event trace.
func (d direction) kind() string {
	return [...]string{"reduce", "broadcast", "peer"}[d]
}

// PhaseStats aggregates everything charged to one named phase (e.g.
// "spmv", "mpk", "borth", "tsqr", "lsq").
type PhaseStats struct {
	Rounds    int // communication rounds (latency events)
	Messages  int // individual device messages
	BytesD2H  int // device-to-host volume
	BytesH2D  int // host-to-device volume
	BytesPeer int // device-to-device volume routed peer-to-peer
	// BytesInterNode is the volume that crossed the inter-node fabric of
	// a clustered profile: cross-node pairs of a routed exchange, plus
	// the aggregated remote share of host rounds (those bytes also appear
	// in BytesD2H/H2D — they really do travel twice, once over the node's
	// local tier and once over the fabric). Zero on single-node profiles.
	BytesInterNode int
	// BytesFP32 and BytesCompressed classify wire volume by element
	// width: the share of the path columns above that traveled as FP32
	// (4-byte) or compressed bfloat16 (2-byte) elements. They are tags,
	// not extra paths — a reduced-width byte is counted once in its path
	// column (D2H/H2D/Peer/InterNode, already at the narrow size) and
	// once here. Both stay zero for all-FP64 runs, so pre-precision
	// ledgers and report tables are byte-identical.
	BytesFP32       int
	BytesCompressed int
	CommTime        float64 // modeled seconds of communication
	DeviceTime      float64 // modeled seconds of device compute (max over devices per kernel)
	DeviceFlops     float64 // total flops summed over devices
	HostTime        float64 // modeled seconds of host compute
	HostFlops       float64
	Kernels         int // device kernel launches
}

// Total returns the modeled wall time of the phase.
func (p PhaseStats) Total() float64 { return p.CommTime + p.DeviceTime + p.HostTime }

// Bytes returns the total wire volume over every path: both host
// directions, peer-to-peer, and the inter-node fabric. A byte that hops
// two tiers (node-local then fabric) counts once per wire it crossed.
func (p PhaseStats) Bytes() int {
	total := p.BytesD2H + p.BytesH2D
	for _, c := range byteColumns {
		if c.Width == Elem64 { // a path; the width columns tag bytes already counted
			total += c.Of(p)
		}
	}
	return total
}

// DeviceGflops returns the achieved device compute rate of the phase in
// Gflop/s (zero when no device time was charged).
func (p PhaseStats) DeviceGflops() float64 {
	if p.DeviceTime <= 0 {
		return 0
	}
	return p.DeviceFlops / p.DeviceTime / 1e9
}

// PhaseFault is the ledger phase charged with fault-recovery overhead:
// the wasted time of faulted transfer rounds and their retry backoff.
// Fault-free runs never create it, so existing phase tables are
// unchanged unless a fault plan actually fired.
const PhaseFault = "fault"

// Event is one traced ledger entry, in program order. Kind is "reduce",
// "broadcast", "kernel", "host", or a fault marker ("fault-death",
// "fault-transfer") recorded by the injection layer; fault events keep
// the phase of the operation that faulted.
//
// Device attributes the event to one simulated device: kernel events
// carry the device that executed them, while communication rounds and
// host compute use HostDevice (the shared bus / CPU is not a device).
// Step groups the events charged by a single ledger call (one kernel
// launch fans out into one event per device, all sharing a Step), so
// exporters can lay concurrent per-device slices side by side instead of
// serializing them.
type Event struct {
	Seq    int
	Step   int
	Device int
	Phase  string
	Kind   string
	Bytes  int
	Time   float64
}

// HostDevice is the Event.Device value of entries that do not belong to a
// particular device: communication rounds and host compute.
const HostDevice = -1

// Stats is a thread-safe ledger of per-phase modeled costs, optionally
// recording an event trace (a bounded ring buffer) for debugging and the
// CLI's -trace flag. Alongside the per-phase aggregates it keeps a
// per-device breakdown (DevicePhase) so load imbalance across the
// simulated GPUs is observable, not just the critical-path maximum.
//
// The rows are indexed by phase index (RegisterPhases): rows[i] is phase
// i's aggregate and dev[i*devs+d] device d's share of it. Both are sized
// at creation to every phase registered by then and to the context's
// physical devices, so a charge allocates nothing; they grow only for a
// name first used after the ledger was made.
type Stats struct {
	mu      sync.Mutex
	rows    []phaseRow
	dev     []PhaseStats
	devs    int   // devices per phase in dev
	tracked int   // highest charged device id plus one
	peer    []int // addPeerRound's per-device tallies, reused

	traceCap  int
	traceSeq  int // next event id, monotone across EnableTrace re-arms
	traceStep int // next launch-group id
	traceHead int // ring overwrite cursor (index of the oldest entry once full)
	traceRing []Event
}

// phaseRow is one phase's aggregate; on marks a phase charged at least
// once, the phases Phases lists.
type phaseRow struct {
	PhaseStats
	on bool
}

// phaseTable is the process's phase index: a name's index is its
// position in names, and sorted lists the indices in name order, the
// order every report and TotalTime walk. A table is never modified once
// published; a registration publishes a copy.
type phaseTable struct {
	index  map[string]int
	names  []string
	sorted []int
}

var (
	phaseMu  sync.Mutex // serializes registrations
	phaseTab atomic.Pointer[phaseTable]
)

func init() { RegisterPhases(PhaseFault) }

// RegisterPhases gives each new name a phase index, the row it keeps on
// every ledger made afterwards. A package that charges fixed phases
// registers them at init; any other name is registered on its first
// charge, which then grows that ledger's rows once.
func RegisterPhases(names ...string) {
	phaseMu.Lock()
	defer phaseMu.Unlock()
	old := phaseTab.Load()
	t := &phaseTable{index: map[string]int{}}
	if old != nil {
		maps.Copy(t.index, old.index)
		t.names = slices.Clone(old.names)
	}
	for _, n := range names {
		if _, ok := t.index[n]; !ok {
			t.index[n] = len(t.names)
			t.names = append(t.names, n)
		}
	}
	t.sorted = slices.SortedFunc(maps.Values(t.index), func(a, b int) int { return strings.Compare(t.names[a], t.names[b]) })
	phaseTab.Store(t)
}

// phaseIndex returns the phase's index, registering a new name.
func phaseIndex(name string) int {
	if i, ok := phaseTab.Load().index[name]; ok {
		return i
	}
	RegisterPhases(name)
	return phaseTab.Load().index[name]
}

// newStats returns an empty ledger for a context of devices physical
// devices: three allocations.
func newStats(devices int) *Stats {
	n := len(phaseTab.Load().names)
	return &Stats{rows: make([]phaseRow, n), dev: make([]PhaseStats, n*devices), devs: devices}
}

// EnableTrace starts recording events into a ring buffer holding the
// last limit entries. Re-arming mid-trace discards the recorded events
// and resets the ring cursor; event Seq numbers keep counting.
func (s *Stats) EnableTrace(limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit < 1 {
		limit = 1
	}
	s.traceCap = limit
	s.traceRing = s.traceRing[:0]
	s.traceHead = 0
}

// Trace returns the recorded events in order (oldest first).
func (s *Stats) Trace() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.traceRing))
	copy(out, s.traceRing)
	sortEventsBySeq(out)
	return out
}

func sortEventsBySeq(ev []Event) {
	sort.Slice(ev, func(a, b int) bool { return ev[a].Seq < ev[b].Seq })
}

// record appends an event to the ring buffer (caller holds the lock).
// The ring position comes from a dedicated cursor, not from Seq, so the
// oldest entry is always the one overwritten even after EnableTrace
// re-armed the ring mid-run.
func (s *Stats) record(e Event) {
	if s.traceCap == 0 {
		return
	}
	e.Seq = s.traceSeq
	s.traceSeq++
	if len(s.traceRing) < s.traceCap {
		s.traceRing = append(s.traceRing, e)
		return
	}
	s.traceRing[s.traceHead] = e
	s.traceHead = (s.traceHead + 1) % s.traceCap
}

// nextStep allocates a launch-group id (caller holds the lock).
func (s *Stats) nextStep() int {
	step := s.traceStep
	s.traceStep++
	return step
}

// get puts a phase on the ledger and returns its index and aggregate
// (caller holds the lock).
func (s *Stats) get(phase string) (int, *PhaseStats) {
	i := phaseIndex(phase)
	if i >= len(s.rows) {
		s.grow(i+1, s.devs)
	}
	s.rows[i].on = true
	return i, &s.rows[i].PhaseStats
}

// devGet returns device d's share of phase i (caller holds the lock).
func (s *Stats) devGet(d, i int) *PhaseStats {
	if d >= s.devs {
		s.grow(len(s.rows), d+1)
	}
	s.tracked = max(s.tracked, d+1)
	return &s.dev[i*s.devs+d]
}

// grow lays the rows out again for n phases of nd devices each.
func (s *Stats) grow(n, nd int) {
	rows := make([]phaseRow, n)
	copy(rows, s.rows)
	dev := make([]PhaseStats, n*nd)
	for i := range s.rows {
		copy(dev[i*nd:], s.dev[i*s.devs:(i+1)*s.devs])
	}
	s.rows, s.dev, s.devs = rows, dev, nd
}

// charged reports whether phase i is on the ledger (caller holds the
// lock).
func (s *Stats) charged(i int) bool { return i < len(s.rows) && s.rows[i].on }

// lookup returns the index of a phase on the ledger, or false for a
// phase never charged to it (caller holds the lock).
func (s *Stats) lookup(name string) (int, bool) {
	i, ok := phaseTab.Load().index[name]
	return i, ok && s.charged(i)
}

// ByteColumn is one optional byte class of the ledger: a PhaseStats
// field that stays zero on the paper's machine (host-routed, one node,
// all FP64) and is therefore reported — as a table column here, as a
// metric series by exporters — only on ledgers where some phase moved
// bytes of that class. A new byte class is one PhaseStats field and one
// row of byteColumns.
type ByteColumn struct {
	// Label names the class for exporters: the transfer direction of a
	// path column ("p2p", "inter"), the width of a precision tag.
	Label string
	// Width is the element width a precision tag classifies; path columns
	// carry Elem64, which tags nothing.
	Width  Elem
	header string
	field  func(*PhaseStats) *int
}

var byteColumns = [...]ByteColumn{
	{"p2p", Elem64, "bytesP2P", func(p *PhaseStats) *int { return &p.BytesPeer }},
	{"inter", Elem64, "bytesInter", func(p *PhaseStats) *int { return &p.BytesInterNode }},
	{Elem32.String(), Elem32, "bytesFP32", func(p *PhaseStats) *int { return &p.BytesFP32 }},
	{ElemBF16.String(), ElemBF16, "bytesComp", func(p *PhaseStats) *int { return &p.BytesCompressed }},
}

// Of returns the column's byte count in p.
func (c ByteColumn) Of(p PhaseStats) int { return *c.field(&p) }

// ByteColumns returns the optional columns this ledger reports: those on
// which some phase is non-zero. Host-routed all-FP64 single-node ledgers
// (every pre-profile golden) report none.
func (s *Stats) ByteColumns() []ByteColumn {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cols []ByteColumn
	for _, c := range byteColumns {
		for i := range s.rows {
			if *c.field(&s.rows[i].PhaseStats) > 0 {
				cols = append(cols, c)
				break
			}
		}
	}
	return cols
}

// tagElem classifies one charge's byte volume by element width (see
// PhaseStats.BytesFP32/BytesCompressed). Elem64 — every historical
// charge — is a no-op.
func tagElem(p *PhaseStats, elem Elem, bytes int) {
	if elem == Elem64 {
		return
	}
	for _, c := range byteColumns {
		if c.Width == elem {
			*c.field(p) += bytes
		}
	}
}

// addHostRound charges one host round: bytes[d] is logical device d's
// share, devs[d] its physical id on the ledger, nodes[d] its node, t the
// modeled time of the whole round. Every participating device is
// occupied for the full round, so each per-device ledger is charged t.
// The full volume lands on the D2H/H2D column (every byte crosses its own
// node's host link); the share of remote-node devices is additionally
// charged to BytesInterNode — the second hop those bytes take over the
// fabric to reach the root node's host. elem tags the round's element
// width on the precision columns.
func (s *Stats) addHostRound(phase string, dir direction, devs, nodes, bytes []int, t float64, elem Elem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, p := s.get(phase)
	p.Rounds++
	p.Messages += len(bytes)
	p.CommTime += t
	total, inter := 0, 0
	for d, b := range bytes {
		dp := s.devGet(devs[d], i)
		dp.Rounds++
		dp.Messages++
		dp.CommTime += t
		total += b
		if dir == dirD2H {
			dp.BytesD2H += b
		} else {
			dp.BytesH2D += b
		}
		if nodes[d] != 0 {
			inter += b
			dp.BytesInterNode += b
		}
		tagElem(dp, elem, b)
	}
	if dir == dirD2H {
		p.BytesD2H += total
	} else {
		p.BytesH2D += total
	}
	p.BytesInterNode += inter
	tagElem(p, elem, total)
	s.record(Event{Step: s.nextStep(), Device: HostDevice, Phase: phase, Kind: dir.kind(), Bytes: total, Time: t})
}

// addCompute charges one parallel kernel launch: ts[d] and work[d] are
// logical device d's modeled time and cost shape, devs[d] its physical
// id. The phase aggregate advances by the slowest device (the devices
// run concurrently); the per-device ledgers record each device's own
// time, which is what makes load imbalance visible. One trace event is
// recorded per device, all sharing a launch Step.
func (s *Stats) addCompute(phase string, devs []int, ts []float64, work []Work) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, p := s.get(phase)
	var max float64
	for _, t := range ts {
		if t > max {
			max = t
		}
	}
	p.DeviceTime += max
	p.Kernels++
	for _, w := range work {
		p.DeviceFlops += w.Flops
	}
	step := s.nextStep()
	for d := range work {
		dp := s.devGet(devs[d], i)
		dp.DeviceTime += ts[d]
		dp.DeviceFlops += work[d].Flops
		dp.Kernels++
		s.record(Event{Step: step, Device: devs[d], Phase: phase, Kind: "kernel", Bytes: int(work[d].Bytes), Time: ts[d]})
	}
}

// addPeerRound charges one routed exchange round: traffic[s][d] is the
// volume logical device s shipped to logical device d, devs the physical
// ids, nodes the devices' nodes, t the routed time of the whole round.
// Same-node pairs land in BytesPeer (the node-local tier), cross-node
// pairs in BytesInterNode (the fabric). Every participating device is
// occupied for the full round; each device's ledger is charged the bytes
// it sent plus the bytes it received.
func (s *Stats) addPeerRound(phase string, devs, nodes []int, traffic [][]int, t float64, elem Elem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, p := s.get(phase)
	p.Rounds++
	p.CommTime += t
	nd := len(traffic)
	tally := sized(&s.peer, 2*nd)
	clear(tally)
	local := tally[:nd] // per device: sent plus received, same node
	inter := tally[nd:] // per device: sent plus received, across nodes
	total, cross := 0, 0
	for a, row := range traffic {
		for b, v := range row {
			if a == b || v <= 0 {
				continue
			}
			p.Messages++
			total += v
			tier := local
			if nodes[a] != nodes[b] {
				tier = inter
				cross += v
			}
			tier[a] += v
			tier[b] += v
		}
	}
	p.BytesPeer += total - cross
	p.BytesInterNode += cross
	tagElem(p, elem, total)
	for d := range traffic {
		dp := s.devGet(devs[d], i)
		dp.Rounds++
		dp.Messages++
		dp.BytesPeer += local[d]
		dp.BytesInterNode += inter[d]
		tagElem(dp, elem, local[d]+inter[d])
		dp.CommTime += t
	}
	s.record(Event{Step: s.nextStep(), Device: HostDevice, Phase: phase, Kind: dirPeer.kind(), Bytes: total, Time: t})
}

// addFault charges fault-recovery overhead: t modeled seconds on the
// PhaseFault ledger row (zero for a death marker) and one trace event
// that keeps the faulted operation's phase. detail is "death" or
// "transfer".
func (s *Stats) addFault(phase string, device int, detail string, t float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, p := s.get(PhaseFault)
	p.Rounds++
	p.CommTime += t
	if device >= 0 {
		dp := s.devGet(device, i)
		dp.Rounds++
		dp.CommTime += t
	}
	s.record(Event{Step: s.nextStep(), Device: device, Phase: phase, Kind: "fault-" + detail, Time: t})
}

func (s *Stats) addHost(phase string, t, flops float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, p := s.get(phase)
	p.HostTime += t
	p.HostFlops += flops
	s.record(Event{Step: s.nextStep(), Device: HostDevice, Phase: phase, Kind: "host", Bytes: 0, Time: t})
}

// Phase returns a copy of the named phase's stats (zero value if the
// phase never ran).
func (s *Stats) Phase(name string) PhaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.lookup(name); ok {
		return s.rows[i].PhaseStats
	}
	return PhaseStats{}
}

// DevicePhase returns a copy of device d's share of the named phase
// (zero value if the device never touched the phase). DeviceTime is the
// device's own busy time, not the launch maximum, so summing DevicePhase
// over devices can exceed Phase(name).DeviceTime — that surplus is
// exactly the parallelism.
func (s *Stats) DevicePhase(d int, name string) PhaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.lookup(name); ok && d >= 0 && d < s.tracked {
		return s.dev[i*s.devs+d]
	}
	return PhaseStats{}
}

// TrackedDevices returns the number of devices that have per-device
// entries (the highest charged device id plus one).
func (s *Stats) TrackedDevices() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracked
}

// Phases returns the phase names in sorted order.
func (s *Stats) Phases() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := phaseTab.Load()
	names := make([]string, 0, len(s.rows))
	for _, i := range t.sorted {
		if s.charged(i) {
			names = append(names, t.names[i])
		}
	}
	return names
}

// TotalTime returns the modeled time summed over all phases. The sum
// runs in sorted phase order so repeated calls on the same ledger return
// bit-identical values (a different order would perturb the last ULP,
// breaking the telemetry stream's monotone-clock guarantee).
func (s *Stats) TotalTime() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, i := range phaseTab.Load().sorted {
		if s.charged(i) {
			p := &s.rows[i]
			t += p.CommTime + p.DeviceTime + p.HostTime
		}
	}
	return t
}

// optionalCells renders one table row's share of the optional columns:
// the headers when p is nil, p's counts otherwise.
func optionalCells(cols []ByteColumn, p *PhaseStats) string {
	var b strings.Builder
	for _, c := range cols {
		if p == nil {
			fmt.Fprintf(&b, " %12s", c.header)
		} else {
			fmt.Fprintf(&b, " %12d", *c.field(p))
		}
	}
	return b.String()
}

// String renders a compact per-phase table. The optional byte columns
// (ByteColumns) appear only on ledgers that moved such bytes, so the
// paper's machine renders exactly the historical table.
func (s *Stats) String() string {
	var b strings.Builder
	cols := s.ByteColumns()
	fmt.Fprintf(&b, "%-10s %8s %8s %12s %12s%s %10s %10s %10s %8s %12s %10s\n",
		"phase", "rounds", "msgs", "bytesD2H", "bytesH2D", optionalCells(cols, nil), "comm(ms)", "dev(ms)", "host(ms)",
		"kernels", "devflops", "Gflop/s")
	for _, name := range s.Phases() {
		p := s.Phase(name)
		fmt.Fprintf(&b, "%-10s %8d %8d %12d %12d%s %10.3f %10.3f %10.3f %8d %12.3e %10.2f\n",
			name, p.Rounds, p.Messages, p.BytesD2H, p.BytesH2D, optionalCells(cols, &p),
			p.CommTime*1e3, p.DeviceTime*1e3, p.HostTime*1e3,
			p.Kernels, p.DeviceFlops, p.DeviceGflops())
	}
	return b.String()
}

// DeviceString renders the per-device breakdown of every phase: one block
// per device that did work, showing where each device's busy time went.
// Devices run concurrently, so a device whose dev(ms) column trails the
// others was idle for the difference — the load-imbalance view of
// Figures 6-8.
func (s *Stats) DeviceString() string {
	var b strings.Builder
	cols := s.ByteColumns()
	nd := s.TrackedDevices()
	for d := 0; d < nd; d++ {
		fmt.Fprintf(&b, "device %d:\n", d)
		fmt.Fprintf(&b, "  %-10s %8s %12s %12s%s %10s %10s %8s %10s\n",
			"phase", "rounds", "bytesD2H", "bytesH2D", optionalCells(cols, nil), "comm(ms)", "dev(ms)", "kernels", "Gflop/s")
		for _, name := range s.Phases() {
			p := s.DevicePhase(d, name)
			if p == (PhaseStats{}) {
				continue
			}
			fmt.Fprintf(&b, "  %-10s %8d %12d %12d%s %10.3f %10.3f %8d %10.2f\n",
				name, p.Rounds, p.BytesD2H, p.BytesH2D, optionalCells(cols, &p),
				p.CommTime*1e3, p.DeviceTime*1e3, p.Kernels, p.DeviceGflops())
		}
	}
	return b.String()
}
