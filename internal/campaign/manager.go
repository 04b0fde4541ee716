package campaign

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"robustify/internal/dispatch"
	"robustify/internal/harness"
	"robustify/internal/obs"
)

// Campaign lifecycle states. StateInterrupted is only ever assigned at
// recovery: the on-disk meta said queued or running, but the process that
// owned the campaign is gone — a crash or SIGKILL ended the daemon before
// the run goroutine could record a terminal state.
//
//lint:enum campaign-state every dispatch over campaign states must cover all six or say why not
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateInterrupted = "interrupted"
)

// Status is the externally visible state of one managed campaign.
type Status struct {
	ID       string       `json:"id"`
	Name     string       `json:"name"`
	State    string       `json:"state"`
	Error    string       `json:"error,omitempty"`
	Spec     Spec         `json:"spec"`
	Progress Progress     `json:"progress"`
	Units    []UnitStatus `json:"units,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
}

type handle struct {
	id      string
	spec    Spec
	camp    *Campaign
	dir     string
	created time.Time
	// counter is the manager-wide fresh-trial counter, attached to every
	// execution this handle creates (see newExecLocked).
	counter *atomic.Int64
	// hub, when the manager has one, receives this campaign's lifecycle
	// events and per-trial telemetry. Nil hubs are valid no-ops.
	hub *obs.Hub

	mu sync.Mutex
	// st and exec are nil for a terminal campaign recovered lazily: its
	// meta already carries state and progress, so the store is only
	// opened (ensureStoreLocked) when results, per-cell status, or a
	// resume actually need trial data.
	st       *Store
	exec     *Execution
	metaDone int // progress from meta.json while the store is unopened
	cancel   context.CancelFunc
	done     chan struct{}
	state    string
	err      error
	started  *time.Time
	finished *time.Time
	// userCancel records that Manager.Cancel fired for the current run, so
	// an explicit cancel that overlaps daemon shutdown is still recorded
	// as cancelled, not interrupted.
	userCancel bool
}

// newExecLocked builds an execution over the handle's (open) store with
// the manager's trial counter attached; h.mu must be held (or the handle
// not yet shared).
func (h *handle) newExecLocked() *Execution {
	e := NewExecution(h.camp, h.st)
	e.trials = h.counter
	e.SetHub(h.hub, h.id)
	return e
}

// ensureStoreLocked opens a lazily recovered handle's store; a no-op
// once open. It deliberately does not build an Execution — replaying the
// store into live statistics is O(trials) and only detailed status needs
// it (ensureExecLocked). h.mu must be held.
func (h *handle) ensureStoreLocked() error {
	if h.st != nil {
		return nil
	}
	st, err := Open(h.dir)
	if err != nil {
		return fmt.Errorf("campaign: open store for %s: %w", h.id, err)
	}
	h.st = st
	return nil
}

// ensureExecLocked opens the store (if needed) and builds the execution
// whose live statistics back detailed status. h.mu must be held.
func (h *handle) ensureExecLocked() error {
	if h.exec != nil {
		return nil
	}
	if err := h.ensureStoreLocked(); err != nil {
		return err
	}
	h.exec = h.newExecLocked()
	return nil
}

// terminal reports whether the state is one no goroutine will leave.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// resumable reports whether Resume may reschedule a campaign in this
// state: its previous run is over (or its previous owner is dead) and the
// grid is not complete-by-construction.
func resumable(state string) bool {
	return state == StateCancelled || state == StateFailed || state == StateInterrupted
}

// Manager schedules campaigns: each submitted spec is compiled, given a
// store directory under root, and executed on its own goroutine, with the
// number of simultaneously running campaigns bounded by slots. A
// cancelled, failed, or interrupted campaign keeps its store and can be
// resumed in place. Lifecycle state is mirrored to each campaign's
// meta.json, so a new manager over the same root recovers every prior
// campaign (see recoverAll).
type Manager struct {
	root  string
	slots chan struct{}
	lock  *os.File // flock on the data root; held for the manager's lifetime

	// trials counts freshly executed trials across all campaigns since
	// this manager was created (for /metrics throughput).
	trials atomic.Int64

	mu     sync.Mutex
	byID   map[string]*handle
	order  []string
	nextID int
	closed bool
	// disp, when set, routes campaign execution to a robustworker fleet
	// instead of running trials in-process.
	disp *dispatch.Coordinator
	// hub, when set, receives lifecycle events and per-trial telemetry
	// for every campaign.
	hub *obs.Hub
	// metricsExtras are additional Prometheus exposition writers appended
	// to /metrics output (the tune manager and the obs hub register
	// theirs), keeping NewServer's signature stable as subsystems grow.
	metricsExtras []func(io.Writer)
}

// SetHub attaches an observability hub to the manager and to every
// already-registered campaign (recovered handles included, so their
// telemetry lands in the right directory). robustd wires this at boot,
// before the listener; with no hub the manager emits nothing.
func (m *Manager) SetHub(h *obs.Hub) {
	m.mu.Lock()
	m.hub = h
	handles := make([]*handle, 0, len(m.byID))
	for _, hd := range m.byID {
		//lint:detmap-exempt hub attachment order is not observable in any durable artifact
		handles = append(handles, hd)
	}
	m.mu.Unlock()
	for _, hd := range handles {
		hd.mu.Lock()
		hd.hub = h
		if hd.exec != nil {
			hd.exec.SetHub(h, hd.id)
		}
		hd.mu.Unlock()
		h.RegisterCampaign(hd.id, hd.dir)
	}
}

// Hub returns the attached observability hub (nil when none).
func (m *Manager) Hub() *obs.Hub {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hub
}

// AddMetrics registers an extra Prometheus exposition writer appended to
// GET /metrics output after the campaign and dispatch families. Writers
// must emit complete, well-formed families of their own.
func (m *Manager) AddMetrics(f func(io.Writer)) {
	if f == nil {
		return
	}
	m.mu.Lock()
	m.metricsExtras = append(m.metricsExtras, f)
	m.mu.Unlock()
}

// emit forwards a lifecycle event to the hub, if one is attached.
func (m *Manager) emit(kind, campaign, detail string) {
	m.mu.Lock()
	h := m.hub
	m.mu.Unlock()
	h.Emit(kind, campaign, detail)
}

// SetDispatcher attaches a dispatch coordinator: every campaign run
// started afterwards executes on registered robustworkers instead of
// in-process. robustd wires this at boot (before the listener and
// -autoresume); with no dispatcher the manager behaves exactly as
// before — all trials run locally.
func (m *Manager) SetDispatcher(d *dispatch.Coordinator) {
	m.mu.Lock()
	m.disp = d
	m.mu.Unlock()
}

// Dispatcher returns the attached coordinator, or nil when campaigns run
// in-process.
func (m *Manager) Dispatcher() *dispatch.Coordinator {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disp
}

// NewManager creates a manager storing campaign results under root and
// recovers every campaign a previous daemon left there: each directory
// with a spec.json is rebuilt from spec + meta + store contents,
// classified (done/failed/cancelled kept; queued/running becomes
// interrupted — no process owns them anymore), and registered so it is
// listable, queryable, and — if interrupted — resumable. Id allocation
// continues after the highest recovered id. maxConcurrent bounds
// simultaneously running campaigns (<=0 means 4).
func NewManager(root string, maxConcurrent int) (*Manager, error) {
	if maxConcurrent <= 0 {
		maxConcurrent = 4
	}
	m := &Manager{
		root:  root,
		slots: make(chan struct{}, maxConcurrent),
		byID:  make(map[string]*handle),
	}
	lock, err := lockRoot(root)
	if err != nil {
		return nil, err
	}
	m.lock = lock
	if err := m.recoverAll(); err != nil {
		unlockRoot(lock)
		return nil, err
	}
	return m, nil
}

// reusableDir reports whether dir is the husk of a Submit a crash cut
// short: nothing inside beyond an empty store file (Store.Open creates
// trials.jsonl before SaveSpec writes the spec, so that is the only
// artifact a crash in that window leaves). Recovery ignores such
// directories, no goroutine owns them (the data-root flock admits one
// manager), so a new campaign may safely claim the id. Any other
// content — a spec, a meta, recorded trials, or foreign files — is
// somebody's data and keeps its id out of circulation; Submit must
// never claim (or, on its error paths, remove) a directory it cannot
// prove is its own leftover.
func reusableDir(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.Name() != storeFile {
			return false
		}
		fi, err := e.Info()
		if err != nil || fi.Size() != 0 {
			return false
		}
	}
	return true
}

// lockRoot takes an exclusive advisory lock on the data root, refusing to
// share it with another live manager: recovery classifies queued/running
// campaigns as ownerless, which is only sound if no other process owns
// them. flock (unlike a pidfile) is released by the kernel when the
// holder dies, so a SIGKILLed daemon never wedges its successor.
func lockRoot(root string) (*os.File, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: data root: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(root, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: lock data root: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: data root %s is owned by another running daemon: %w", root, err)
	}
	return f, nil
}

func unlockRoot(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}

// Submit compiles the spec, opens its store, and schedules it. It returns
// the campaign id immediately; execution proceeds in the background.
func (m *Manager) Submit(spec Spec) (string, error) {
	camp, err := Compile(spec)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", fmt.Errorf("campaign: manager closed")
	}
	hub := m.hub
	// nextID already continues past the highest recovered id; the probe
	// additionally skips stray directories not created by a manager, whose
	// contents would otherwise be served as cached trials for this grid.
	// Husks a crash cut out of a previous Submit (no spec, no meta, no
	// recorded trial) are reclaimed instead of skipped, so id allocation
	// stays deterministic across kill-and-resume runs — which is what
	// keeps a resumed tune search's campaign ids aligned with an
	// uninterrupted one.
	var id string
	for {
		m.nextID++
		id = fmt.Sprintf("c%04d", m.nextID)
		dir := filepath.Join(m.root, id)
		if _, err := os.Stat(dir); os.IsNotExist(err) || reusableDir(dir) {
			break
		}
	}
	m.mu.Unlock()

	// On any error past this point the freshly created directory must be
	// removed again: a spec.json (or queued meta.json) left behind by a
	// failed Submit would be recovered — and autoresumed — on the next
	// boot as a ghost campaign the client was told does not exist.
	dir := filepath.Join(m.root, id)
	st, err := Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	if err := st.SaveSpec(spec); err != nil {
		//lint:errdurability-exempt best-effort cleanup: the store directory is removed on the next line
		st.Close()
		os.RemoveAll(dir)
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &handle{
		id: id, spec: spec, camp: camp, st: st, dir: dir,
		counter: &m.trials,
		hub:     hub,
		cancel:  cancel,
		done:    make(chan struct{}),
		created: time.Now(),
		state:   StateQueued,
	}
	h.exec = h.newExecLocked()
	if err := h.saveMetaLocked(); err != nil { // no goroutine sees h yet
		cancel()
		//lint:errdurability-exempt best-effort cleanup: the store directory is removed on the next line
		st.Close()
		os.RemoveAll(dir)
		return "", err
	}
	// Register and launch under m.mu so a concurrent Close either refuses
	// this campaign here or sees it in byID and winds it down.
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		//lint:errdurability-exempt best-effort cleanup: the store directory is removed on the next line
		st.Close()
		os.RemoveAll(dir)
		return "", fmt.Errorf("campaign: manager closed")
	}
	m.byID[id] = h
	m.order = append(m.order, id)
	go m.run(ctx, h, h.done)
	m.mu.Unlock()
	hub.RegisterCampaign(id, dir)
	hub.Emit("campaign.submitted", id, spec.Title())
	return id, nil
}

// Resume reschedules a cancelled, failed, or interrupted campaign. Its
// store already holds every completed trial, so only the remainder of the
// grid runs; the final table is byte-identical to an uninterrupted run.
// Interrupted campaigns are handles recovered at startup, so Resume is
// also how a restarted daemon finishes work a crash orphaned.
func (m *Manager) Resume(id string) error {
	h, err := m.handleByID(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	state, done := h.state, h.done
	h.mu.Unlock()
	if !resumable(state) {
		return fmt.Errorf("campaign: %s is %s; only cancelled, failed, or interrupted campaigns resume", id, state)
	}
	<-done // the previous run goroutine has fully exited

	ctx, cancel := context.WithCancel(context.Background())
	// Launch under m.mu so Close, which sets closed under the same lock
	// before cancelling handles, either refuses this resume or sees its
	// fresh cancel/done pair.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		cancel()
		return fmt.Errorf("campaign: manager closed")
	}
	h.mu.Lock()
	if !resumable(h.state) { // lost a race with another Resume
		h.mu.Unlock()
		cancel()
		return fmt.Errorf("campaign: %s already resumed", id)
	}
	if err := h.ensureStoreLocked(); err != nil { // lazily recovered failed/cancelled
		h.mu.Unlock()
		cancel()
		return err
	}
	h.state = StateQueued
	h.err = nil
	h.finished = nil
	h.userCancel = false
	h.exec = h.newExecLocked()
	h.cancel = cancel
	h.done = make(chan struct{})
	done = h.done
	h.persistLocked()
	h.mu.Unlock()

	go m.run(ctx, h, done)
	m.hub.Emit("campaign.resumed", id, "")
	return nil
}

// ResumeInterrupted reschedules every campaign currently classified as
// interrupted (the -autoresume startup path) and returns the ids it
// resumed.
func (m *Manager) ResumeInterrupted() []string {
	var ids []string
	for _, s := range m.List() {
		if s.State != StateInterrupted {
			continue
		}
		if err := m.Resume(s.ID); err != nil {
			log.Printf("campaign: autoresume %s: %v", s.ID, err)
			continue
		}
		ids = append(ids, s.ID)
	}
	return ids
}

func (m *Manager) run(ctx context.Context, h *handle, done chan struct{}) {
	defer close(done)
	select {
	case m.slots <- struct{}{}:
		defer func() { <-m.slots }()
	case <-ctx.Done():
		h.finish(m.stopState(h), nil)
		return
	}
	now := time.Now()
	h.mu.Lock()
	h.state = StateRunning
	h.started = &now
	exec := h.exec
	h.persistLocked()
	h.mu.Unlock()
	h.hub.Emit("campaign.running", h.id, "")

	m.mu.Lock()
	disp := m.disp
	m.mu.Unlock()
	var err error
	if disp != nil {
		err = exec.RunDispatched(ctx, disp, h.id)
	} else {
		err = exec.Run(ctx)
	}
	if err == nil {
		// Done means every trial is recorded: put the store in canonical
		// order before anyone can see the terminal state. A failed rewrite
		// leaves the append-ordered store intact, and Resume retries it.
		if cerr := exec.st.Canonicalize(); cerr != nil {
			err = fmt.Errorf("campaign: canonicalize store: %w", cerr)
		}
	}
	switch {
	case err == nil:
		h.finish(StateDone, nil)
	case ctx.Err() != nil:
		h.finish(m.stopState(h), nil)
	default:
		h.finish(StateFailed, err)
	}
}

// stopState names why a run's context was cancelled. An explicit Cancel
// is a deliberate, terminal choice and wins even when it overlaps
// shutdown; otherwise a closing manager (daemon wind-down) leaves the
// campaign interrupted — the same state a crash produces, so the next
// boot lists it as unfinished and -autoresume picks it up. The locks are
// taken sequentially, never nested, to keep the m.mu -> h.mu order used
// elsewhere.
func (m *Manager) stopState(h *handle) string {
	h.mu.Lock()
	user := h.userCancel
	h.mu.Unlock()
	if user {
		return StateCancelled
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return StateInterrupted
	}
	return StateCancelled
}

func (h *handle) finish(state string, err error) {
	now := time.Now()
	h.mu.Lock()
	h.state = state
	h.err = err
	h.finished = &now
	h.persistLocked()
	h.mu.Unlock()
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	h.hub.Emit("campaign."+state, h.id, detail)
}

// saveMetaLocked writes the handle's lifecycle state to its meta.json;
// h.mu must be held (or the handle not yet shared).
func (h *handle) saveMetaLocked() error {
	m := Meta{
		ID:       h.id,
		Name:     h.spec.Title(),
		State:    h.state,
		Created:  h.created,
		Started:  h.started,
		Finished: h.finished,
		Done:     h.metaDone,
		Total:    h.camp.Total(),
	}
	if h.st != nil {
		m.Done = h.st.Count()
	}
	if h.err != nil {
		m.Error = h.err.Error()
	}
	return writeMeta(h.dir, m)
}

// persistLocked is saveMetaLocked for callers that cannot propagate the
// error (state transitions already committed in memory): a failed write
// only costs registry accuracy across a restart, so it is logged, not
// fatal.
func (h *handle) persistLocked() {
	if err := h.saveMetaLocked(); err != nil {
		log.Printf("campaign: %s: persist state: %v", h.id, err)
	}
}

func (h *handle) status(withUnits bool) Status {
	h.mu.Lock()
	s := Status{
		ID:       h.id,
		Name:     h.spec.Title(),
		State:    h.state,
		Spec:     h.spec,
		Created:  h.created,
		Started:  h.started,
		Finished: h.finished,
	}
	if h.err != nil {
		s.Error = h.err.Error()
	}
	exec := h.exec
	metaDone := h.metaDone
	h.mu.Unlock()
	if exec == nil && withUnits {
		// Per-cell statistics need the trial data: open the lazy store now.
		h.mu.Lock()
		if err := h.ensureExecLocked(); err != nil {
			log.Printf("campaign: %s: status units: %v", h.id, err)
		}
		exec = h.exec
		h.mu.Unlock()
	}
	if exec == nil {
		// Lazily recovered terminal campaign: progress comes straight from
		// meta.json, so listing history never replays stores.
		s.Progress = Progress{Done: metaDone, Total: h.camp.Total()}
		return s
	}
	s.Progress = exec.Progress()
	if withUnits {
		s.Units = exec.Status()
	}
	return s
}

func (m *Manager) handleByID(id string) (*handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.byID[id]
	if !ok {
		return nil, fmt.Errorf("campaign: unknown campaign %q", id)
	}
	return h, nil
}

// List returns the status of every campaign in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if h, err := m.handleByID(id); err == nil {
			out = append(out, h.status(false))
		}
	}
	return out
}

// Get returns one campaign's status with live per-cell statistics.
func (m *Manager) Get(id string) (Status, error) {
	h, err := m.handleByID(id)
	if err != nil {
		return Status{}, err
	}
	return h.status(true), nil
}

// Cancel stops a running (or queued) campaign; completed trials stay in
// the store and Resume picks up where it left off. Cancelling a
// recovered interrupted campaign — which no goroutine owns — flips it
// straight to cancelled so /resume stays possible but -autoresume treats
// the operator's decision as final.
func (m *Manager) Cancel(id string) error {
	h, err := m.handleByID(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	if h.state == StateInterrupted {
		h.state = StateCancelled
		h.persistLocked()
		h.mu.Unlock()
		return nil
	}
	h.userCancel = true
	cancel := h.cancel
	h.mu.Unlock()
	cancel()
	m.emit("campaign.cancel", id, "")
	return nil
}

// Table materializes the campaign's current results table; valid at any
// point mid-run. A lazily recovered campaign's store is opened here, on
// first access.
func (m *Manager) Table(id string) (*harness.Table, error) {
	h, err := m.handleByID(id)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if err := h.ensureStoreLocked(); err != nil {
		h.mu.Unlock()
		return nil, err
	}
	st := h.st
	h.mu.Unlock()
	return h.camp.TableFromStore(st), nil
}

// Wait blocks until the campaign's current run reaches a terminal state
// and returns its error, if any.
func (m *Manager) Wait(id string) error {
	h, err := m.handleByID(id)
	if err != nil {
		return err
	}
	h.mu.Lock()
	done := h.done
	h.mu.Unlock()
	<-done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Close cancels every campaign, waits (indefinitely) for them to wind
// down, and closes their stores.
func (m *Manager) Close() { m.Shutdown(0) }

// Shutdown is Close with a bounded deadline: every campaign is
// cancelled, then waited on for at most timeout in total (0 = forever).
// It returns false when the deadline expired with run goroutines still
// alive — a wedged trial, say — in which case their stores are left
// open (the goroutine may still append; the process is about to exit
// anyway) and the data-root flock is left for the kernel to release at
// process death, so a successor daemon can never grab the root while a
// wedged goroutine still writes to it. The wedged campaign's meta still
// says running, which the next boot classifies as interrupted — exactly
// the crash path — so nothing is lost beyond the in-flight trials.
// Shutdown is idempotent; concurrent or repeated calls after the first
// return true immediately.
func (m *Manager) Shutdown(timeout time.Duration) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return true
	}
	m.closed = true
	handles := make([]*handle, 0, len(m.byID))
	for _, h := range m.byID {
		//lint:detmap-exempt shutdown fan-out: cancellation/wait order is not observable in any durable artifact
		handles = append(handles, h)
	}
	m.mu.Unlock()
	for _, h := range handles {
		h.mu.Lock()
		cancel := h.cancel
		h.mu.Unlock()
		cancel()
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		tmr := time.NewTimer(timeout)
		defer tmr.Stop()
		deadline = tmr.C
	}
	clean := true
	timedOut := false
	for _, h := range handles {
		h.mu.Lock()
		done := h.done
		h.mu.Unlock()
		if !timedOut {
			select {
			case <-done:
			case <-deadline:
				timedOut = true
			}
		}
		if timedOut {
			// The deadline fired once; poll the remaining handles without
			// blocking so already-finished ones still close cleanly.
			select {
			case <-done:
			default:
				clean = false
				continue
			}
		}
		h.mu.Lock()
		if h.st != nil {
			// A failed close is a failed last flush: the on-disk store may
			// be missing records the meta already claims. That is not a
			// clean shutdown, and the root flock stays held (released by
			// the kernel at exit) so a successor cannot trust the root
			// before an operator looks.
			if err := h.st.Close(); err != nil {
				clean = false
			}
		}
		h.mu.Unlock()
	}
	if clean {
		unlockRoot(m.lock)
	}
	return clean
}
