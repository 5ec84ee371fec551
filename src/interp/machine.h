// The interpreter's execution engine, factored out of the seeded runner
// so the exhaustive schedule explorer (explore.h) can drive it too.
//
// A Machine holds the complete dynamic state of one execution: shared
// memory, thread frame stacks, lock owners, event flags, barrier epochs,
// TSO store buffers and the observable output. It is *copyable*, which
// is what enables exhaustive exploration of all schedules — the explorer
// forks the machine at every scheduling choice — so one copy is made
// cheap:
//
//  - Everything that is a pure function of the program (the cell
//    layout, which cells are shared, the static frame-stack and
//    store-buffer bounds that fix the state block's geometry) lives in
//    one MachineLayout, built once per run or exploration and shared
//    read-only by every Machine of it.
//  - All mutable state sits in one contiguous block: cells, lock
//    holders, event bits, then one fixed-stride record per thread (its
//    status word, its frame stack and its store buffer), then the
//    output. Copying a Machine is one allocation plus a memcpy; only a
//    spawn or a print may regrow the block.
//  - Every mutation keeps a 128-bit fingerprint up to date. It is a sum,
//    per 64-bit half, of strongly mixed terms, one per state component
//    (a nonzero cell, a set event, a held lock, a thread's status word,
//    a frame at depth d, a store-buffer slot, an output position, an
//    error bit), so a step subtracts the terms it changes and adds their
//    replacements. stateHash128() is an O(1) read; recomputeHash128() is
//    the canonical from-scratch definition the running value must always
//    equal (docs/ANALYSIS.md bounds its collision probability).
//
// Lock-hold accounting (RunResult::lockStats) is not machine state: only
// the seeded runner (interp::run) consumes it, so it keeps its own
// counters next to the machine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "src/ir/program.h"
#include "src/support/memmodel.h"
#include "src/support/visited.h"

namespace cssame::interp {

/// Pure deterministic stand-in for external functions: an FNV-1a style
/// mix of the callee id and arguments, truncated to friendly ranges.
[[nodiscard]] inline long long externalCall(
    SymbolId callee, const std::vector<long long>& args) {
  std::uint64_t h = 1469598103934665603ull ^ (callee.value() * 0x9e3779b9ull);
  for (long long a : args) {
    h ^= static_cast<std::uint64_t>(a);
    h *= 1099511628211ull;
  }
  return static_cast<long long>(h & 0xffffffull);
}

/// Per-program immutable part of every Machine of one run or
/// exploration: memory layout, sharing, and the static bounds that fix
/// the geometry of the mutable state block. Must outlive its machines.
class MachineLayout {
 public:
  explicit MachineLayout(const ir::Program& prog,
                         support::MemoryModel model = support::MemoryModel::SC)
      : prog_(&prog), model_(model) {
    // Memory layout: one cell per symbol index first (scalars live in
    // their own slot), then the cell regions of all arrays. Cell
    // addresses as seen by the program are 1-based: address 0 is null,
    // address k names cell k-1. `&x` therefore evaluates to x.index() + 1
    // and `&a[i]` to base(a) + (i mod N) + 1.
    symbols_ = prog.symbols.size();
    cells_ = symbols_;
    sharedVar_.assign(symbols_, 0);
    arraySize_.assign(symbols_, 0);
    base_.assign(symbols_, 0);
    ownerCell_.resize(symbols_);
    for (const auto& sym : prog.symbols.all()) {
      ownerCell_[sym.id.index()] = sym.id;
      if (sym.kind == ir::SymbolKind::Var && sym.shared)
        sharedVar_[sym.id.index()] = 1;
    }
    for (const auto& sym : prog.symbols.all()) {
      if (sym.kind != ir::SymbolKind::Var || !sym.isArray()) continue;
      arraySize_[sym.id.index()] = sym.arraySize;
      base_[sym.id.index()] = static_cast<std::uint32_t>(cells_);
      cells_ += sym.arraySize;
      ownerCell_.resize(cells_, sym.id);
    }
    sharedCell_.resize(cells_);
    for (std::size_t c = 0; c < cells_; ++c)
      sharedCell_[c] = sharedVar_[ownerCell_[c].index()];
    frameBound(prog.body, 1);
    bufCap_ = model == support::MemoryModel::TSO ? kStoreBufCap : 0;
  }

  /// TSO store-buffer capacity: a full buffer blocks further plain
  /// shared stores until a flush commits (bounds the state space the
  /// same way real hardware bounds reordering windows).
  static constexpr std::uint32_t kStoreBufCap = 8;

 private:
  friend class Machine;

  /// Raises frameCap_ to the deepest frame stack a thread running `list`
  /// (entered at stack depth `depth`) can build: if and while bodies
  /// push a frame while they run, cobegin arms start their own thread.
  void frameBound(const ir::StmtList& list, std::uint32_t depth) {
    frameCap_ = std::max(frameCap_, depth);
    for (const auto& sp : list) {
      const ir::Stmt& s = *sp;
      switch (s.kind) {
        case ir::StmtKind::If:
          if (!s.elseBody.empty()) frameBound(s.elseBody, depth + 1);
          [[fallthrough]];
        case ir::StmtKind::While:
          if (!s.thenBody.empty()) frameBound(s.thenBody, depth + 1);
          break;
        case ir::StmtKind::Cobegin:
          for (const ir::ThreadBody& tb : s.threads) frameBound(tb.body, 1);
          break;
        default:
          break;
      }
    }
  }

  const ir::Program* prog_;
  support::MemoryModel model_;
  std::size_t symbols_ = 0;
  std::size_t cells_ = 0;                ///< symbol slots, then arrays
  std::vector<char> sharedVar_;          ///< per symbol: shared variable
  std::vector<std::uint32_t> arraySize_;  ///< per symbol: 0 for scalars
  std::vector<std::uint32_t> base_;  ///< per symbol: first cell of an array
  std::vector<SymbolId> ownerCell_;  ///< per cell: owning symbol
  std::vector<char> sharedCell_;     ///< per cell: owner is shared
  std::uint32_t frameCap_ = 1;       ///< deepest frame stack of any thread
  std::uint32_t bufCap_ = 0;         ///< store-buffer slots per thread
};

/// A mutex body the schedule explorer runs as one step together with the
/// lock that starts it (dpor::AtomicBodies in src/interp/dpor.h decides
/// which bodies qualify). Static: the same for every state at the lock.
struct AtomicBody {
  /// Program steps after the acquire: the body's statements, then the
  /// unlock.
  std::uint32_t steps = 0;
  std::vector<SymbolId> reads;   ///< shared variables the body reads
  std::vector<SymbolId> writes;  ///< shared variables the body writes
};

class Machine {
 public:
  /// One scheduler choice: execute the thread's next program step, or
  /// (TSO only) commit the oldest entry of its store buffer to memory.
  /// Under SC every enabled action is a program step.
  struct Action {
    std::size_t thread = 0;
    bool flush = false;
  };

  /// Scheduler-visible thread state, for the explorer's partial-order
  /// reduction (it must reason about *why* a thread is blocked to build
  /// necessary-enabling sets).
  enum class Status : std::uint8_t {
    Runnable,
    WaitLock,
    WaitEvent,
    BarrierWait,
    Joining,
    Done,
    /// TSO only: the thread has executed its last statement but still
    /// holds buffered stores; only its flush actions remain, and the
    /// last one retires it to Done. A thread in this state no longer
    /// blocks barriers, but its cobegin join waits for the drain —
    /// other threads may observe memory before the leftover stores
    /// land, exactly like a real core's buffer outliving its thread.
    Draining,
  };

  /// No thread holds the lock.
  static constexpr std::size_t kNoThread = static_cast<std::size_t>(-1);

  /// A buffered (not yet globally visible) store: memory cell (index
  /// into the flat cell array — for a scalar this equals the symbol
  /// index) and value.
  struct BufferedStore {
    std::uint32_t cell = 0;
    long long value = 0;
  };

  /// Indices of the threads of one spawn group (contiguous: a cobegin
  /// appends its arms as consecutive threads).
  using ThreadRange = std::ranges::iota_view<std::size_t, std::size_t>;

  /// An empty placeholder with no layout and no state; it may only be
  /// assigned to. The explorer pre-sizes its next frontier with these.
  Machine() = default;

  /// The initial state: all cells 0, the main thread about to run the
  /// program body (already Done when the body is empty).
  explicit Machine(const MachineLayout& layout) : layout_(&layout) {
    const std::size_t used = threadsOff() + stride();
    allocate(used + kSlackBytes);
    std::memset(block_.get(), 0, threadsOff());
    std::fill_n(holders(), layout.symbols_, kNoHolder);
    threads_ = 1;
    const ir::StmtList& body = layout.prog_->body;
    ThreadRec& main = initThread(0, &body);
    if (body.empty()) {
      main.status = Status::Done;  // nothing to run, like an empty arm
    } else {
      frames(0)[0] = Frame{&body, nullptr, 0};
      main.depth = 1;
    }
    hash_ = recomputeHash128();
  }

  Machine(const Machine& other)
      : layout_(other.layout_),
        threads_(other.threads_),
        outLen_(other.outLen_),
        lockError_(other.lockError_),
        assertFailed_(other.assertFailed_),
        ptrError_(other.ptrError_),
        hash_(other.hash_) {
    if (other.block_ == nullptr) return;
    const std::size_t used = other.usedBytes();
    allocate(used + kSlackBytes);
    std::memcpy(block_.get(), other.block_.get(), used);
  }
  Machine& operator=(const Machine& other) {
    if (this != &other) *this = Machine(other);
    return *this;
  }
  Machine(Machine&&) noexcept = default;
  Machine& operator=(Machine&&) noexcept = default;

  /// True while at least one thread has not finished.
  [[nodiscard]] bool anyAlive() const {
    for (std::size_t i = 0; i < threads_; ++i)
      if (thread(i).status != Status::Done) return true;
    return false;
  }

  /// Enabled scheduler actions in deterministic (thread-index) order,
  /// appended to `out`: each thread's program step if enabled, then its
  /// flush action when a buffered store is waiting (never under SC).
  /// None while anyAlive() means deadlock.
  void readyActions(std::vector<Action>& out) const {
    for (std::size_t i = 0; i < threads_; ++i) {
      const ThreadRec& t = thread(i);
      if (t.status != Status::Done && canProgress(i))
        out.push_back(Action{i, false});
      if (t.bufLen != 0) out.push_back(Action{i, true});
    }
  }
  [[nodiscard]] std::vector<Action> readyActions() const {
    std::vector<Action> out;
    readyActions(out);
    return out;
  }

  /// Performs one scheduler action.
  void perform(Action a) {
    if (a.flush)
      flush(a.thread);
    else
      step(a.thread);
    assert(hash_ == recomputeHash128());
  }

  /// Pending (issued, not yet committed) stores of thread `ti`, oldest
  /// first. Always empty under SC.
  [[nodiscard]] std::span<const BufferedStore> storeBufOf(
      std::size_t ti) const {
    return {buf(ti), thread(ti).bufLen};
  }

  [[nodiscard]] std::size_t threadCount() const { return threads_; }

  /// The statement at thread `ti`'s program point whatever its status (a
  /// WaitLock thread sits on its lock statement), or nullptr when it has
  /// no frame left.
  [[nodiscard]] const ir::Stmt* currentStmt(std::size_t ti) const {
    const ThreadRec& t = thread(ti);
    if (t.depth == 0) return nullptr;
    const Frame& f = frames(ti)[t.depth - 1];
    if (f.idx >= f.list->size()) return nullptr;
    return (*f.list)[f.idx].get();
  }

  /// The statement thread `ti` would execute on its next step, or nullptr
  /// when the thread is blocked, joining or done (its next step is then a
  /// synchronization action, not a variable access). The explorer's
  /// dynamic race detector inspects pending statements of co-enabled
  /// threads.
  [[nodiscard]] const ir::Stmt* pendingStmt(std::size_t ti) const {
    return thread(ti).status == Status::Runnable ? currentStmt(ti) : nullptr;
  }

  /// Current value of a symbol's shared-memory cell. The explorer samples
  /// these to build observed value ranges for the CVRA soundness check.
  [[nodiscard]] long long valueOf(SymbolId v) const {
    return cells()[v.index()];
  }

  /// Min/max over the symbol's cells: the scalar slot twice for a
  /// scalar, the cell region's extrema for an array.
  [[nodiscard]] std::pair<long long, long long> valueRangeOf(
      SymbolId v) const {
    const std::uint32_t n = layout_->arraySize_[v.index()];
    const long long* c = cells();
    if (n == 0) return {c[v.index()], c[v.index()]};
    const auto [lo, hi] = std::minmax_element(
        c + layout_->base_[v.index()], c + layout_->base_[v.index()] + n);
    return {*lo, *hi};
  }

  /// Dynamic shared-memory accesses of thread `ti`'s pending statement,
  /// as (cell, owning symbol) pairs. Addresses are evaluated in the
  /// thread's current view of memory without executing the statement and
  /// without recording pointer errors — this is the explorer's race
  /// oracle, and an out-of-range address touches no cell. For a scalar
  /// access the cell equals the symbol index.
  struct PendingAccess {
    std::vector<std::pair<std::uint32_t, SymbolId>> writes;
    std::vector<std::pair<std::uint32_t, SymbolId>> reads;
  };

  /// Fills `out` (cleared first; its capacity is reused).
  void pendingAccesses(std::size_t ti, PendingAccess& out) const {
    out.writes.clear();
    out.reads.clear();
    const ir::Stmt* s = pendingStmt(ti);
    if (s == nullptr) return;
    const std::span<const BufferedStore> view = storeBufOf(ti);
    const MachineLayout& L = *layout_;
    auto addRead = [&](std::uint32_t cell) {
      if (L.sharedCell_[cell]) out.reads.emplace_back(cell, L.ownerCell_[cell]);
    };
    ir::forEachStmtExpr(*s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        switch (e.kind) {
          case ir::ExprKind::VarRef:
            addRead(static_cast<std::uint32_t>(e.var.index()));
            break;
          case ir::ExprKind::Index:
            addRead(cellOfIndex(e.var, eval(*e.operands[0], view)));
            break;
          case ir::ExprKind::Deref: {
            const long long a = eval(*e.operands[0], view);
            if (inRange(a)) addRead(static_cast<std::uint32_t>(a - 1));
            break;
          }
          default:
            break;
        }
      });
    });
    if (s->kind == ir::StmtKind::Assign) {
      std::uint32_t cell = 0;
      bool have = true;
      switch (s->lhsKind) {
        case ir::LValueKind::Var:
          cell = static_cast<std::uint32_t>(s->lhs.index());
          break;
        case ir::LValueKind::Index:
          cell = cellOfIndex(s->lhs, eval(*s->lhsAddr, view));
          break;
        case ir::LValueKind::Deref: {
          const long long a = eval(*s->lhsAddr, view);
          have = inRange(a);
          if (have) cell = static_cast<std::uint32_t>(a - 1);
          break;
        }
      }
      if (have && L.sharedCell_[cell])
        out.writes.emplace_back(cell, L.ownerCell_[cell]);
    }
  }

  // -- Scheduler introspection for the explorer's DPOR layer ---------------

  [[nodiscard]] Status statusOf(std::size_t ti) const {
    return thread(ti).status;
  }
  /// The lock or event symbol a WaitLock/WaitEvent thread is blocked on.
  [[nodiscard]] SymbolId waitSymOf(std::size_t ti) const {
    return thread(ti).waitSym;
  }
  /// Threads spawned by `ti`'s latest cobegin.
  [[nodiscard]] ThreadRange childrenOf(std::size_t ti) const {
    const ThreadRec& t = thread(ti);
    return {t.childBegin, std::size_t{t.childBegin} + t.childCount};
  }
  /// `ti`'s spawn group (all arms of its cobegin, `ti` included).
  [[nodiscard]] ThreadRange siblingsOf(std::size_t ti) const {
    const ThreadRec& t = thread(ti);
    return {t.sibBegin, std::size_t{t.sibBegin} + t.sibCount};
  }
  [[nodiscard]] std::uint64_t barrierEpochOf(std::size_t ti) const {
    return thread(ti).barrierEpoch;
  }
  /// Thread currently holding lock `m`, or kNoThread when free.
  [[nodiscard]] std::size_t lockHolderOf(SymbolId m) const {
    const std::uint32_t h = holders()[m.index()];
    return h == kNoHolder ? kNoThread : h;
  }
  [[nodiscard]] bool eventIsSet(SymbolId e) const {
    return events()[e.index()] != 0;
  }
  /// The statement list thread `ti` was spawned to run (stable pointer
  /// into the program; the main thread reports the program body).
  [[nodiscard]] const ir::StmtList* rootListOf(std::size_t ti) const {
    return thread(ti).rootList;
  }

  /// Everything the DPOR dependence relation needs to know about one
  /// enabled action, resolved against the current dynamic state:
  ///
  ///  - `global`: the action commutes with nothing (assert halts the
  ///    whole machine; cobegin allocates thread indices, so two spawns
  ///    produce hash-distinct states in either order).
  ///  - `print`: appends to the observable output (print/print pairs are
  ///    order-dependent; print/anything-else commutes).
  ///  - `barrier`: a barrier arrive or release — dependent with barrier
  ///    actions of the same sibling group (arrivals enable releases).
  ///  - `sync`: the lock/event symbol a Lock/Unlock/Set/Wait action (or
  ///    a blocked-acquire resume) touches; two sync actions are
  ///    dependent iff they name the same symbol.
  ///  - `acc`: the dynamically-resolved shared memory cells the step
  ///    reads/writes (a flush action writes its front buffer cell).
  ///  - `loopReads`/`anywhereRead`: symbol-level reads the step may
  ///    additionally perform while unwinding frames — completing the
  ///    last statement of a while body re-evaluates the loop condition,
  ///    which reads memory beyond the pending statement's own accesses.
  ///
  /// An acquire the explorer runs together with its mutex body through
  /// the unlock (`body`, see AtomicBody) also reports every cell the body
  /// may touch.
  ///
  /// Resumes of WaitEvent (events are never cleared) and Joining
  /// (children never leave Done) touch nothing but their own thread
  /// state and unwind reads.
  struct ActionFacts {
    bool global = false;
    bool print = false;
    bool barrier = false;
    bool anywhereRead = false;  ///< unwind may read via a pointer deref
    SymbolId sync;
    PendingAccess acc;
    std::vector<SymbolId> loopReads;  ///< shared symbols unwind may read
  };

  /// Fills `f` (reset first; its vectors' capacity is reused).
  void actionFacts(Action a, ActionFacts& f,
                   const AtomicBody* body = nullptr) const {
    f.global = f.print = f.barrier = f.anywhereRead = false;
    f.sync = SymbolId{};
    f.acc.writes.clear();
    f.acc.reads.clear();
    f.loopReads.clear();
    const ThreadRec& t = thread(a.thread);
    if (a.flush) {
      const BufferedStore& st = buf(a.thread)[0];
      f.acc.writes.emplace_back(st.cell, layout_->ownerCell_[st.cell]);
      return;
    }
    // Any program step may unwind frames, re-evaluating enclosing
    // while-loop conditions; collect their reads at symbol granularity
    // (addresses inside a condition are re-evaluated in post-step
    // memory, so cell-exactness is not available here).
    const Frame* fr = frames(a.thread);
    for (std::uint32_t d = 0; d < t.depth; ++d) {
      if (fr[d].loop == nullptr) continue;
      ir::forEachExpr(*fr[d].loop->expr, [&](const ir::Expr& e) {
        switch (e.kind) {
          case ir::ExprKind::VarRef:
          case ir::ExprKind::Index:
            if (layout_->sharedVar_[e.var.index()]) f.loopReads.push_back(e.var);
            break;
          case ir::ExprKind::Deref:
            f.anywhereRead = true;
            break;
          default:
            break;
        }
      });
    }
    switch (t.status) {
      case Status::WaitLock:
        f.sync = t.waitSym;  // the resume acquires the lock
        if (body != nullptr) addBodyCells(*body, f.acc);
        return;
      case Status::WaitEvent:
      case Status::Joining:
        return;  // pure resume: no shared effect beyond the unwind
      case Status::BarrierWait:
        f.barrier = true;  // the resume releases past the barrier
        return;
      default:
        break;
    }
    const ir::Stmt* s = pendingStmt(a.thread);
    if (s == nullptr) return;
    switch (s->kind) {
      case ir::StmtKind::Assert:
      case ir::StmtKind::Cobegin:
        f.global = true;
        return;
      case ir::StmtKind::Lock:
        if (body != nullptr) addBodyCells(*body, f.acc);
        [[fallthrough]];
      case ir::StmtKind::Unlock:
      case ir::StmtKind::Set:
      case ir::StmtKind::Wait:
        f.sync = s->sync;
        return;
      case ir::StmtKind::Barrier:
        f.barrier = true;
        return;
      case ir::StmtKind::Fence:
        return;  // gated on an empty own buffer; no shared effect
      case ir::StmtKind::Print:
        f.print = true;
        break;  // the printed expression's reads still matter
      default:
        break;
    }
    pendingAccesses(a.thread, f.acc);
  }

  /// Approximate dynamic-state footprint in bytes, for memory budgets:
  /// the machine object plus its state block. The shared layout and the
  /// read-only program are not counted.
  [[nodiscard]] std::uint64_t approxBytes() const {
    return sizeof(Machine) + capacity_;
  }

  /// Observable output so far, in emission order.
  [[nodiscard]] std::span<const long long> output() const {
    return {outputArr(), outLen_};
  }
  /// Some step unlocked a lock its thread did not hold.
  [[nodiscard]] bool lockError() const { return lockError_; }
  /// An assert(e) evaluated e == 0 (the machine then halted).
  [[nodiscard]] bool assertFailed() const { return assertFailed_; }
  /// Some step used an address outside the program's memory.
  [[nodiscard]] bool ptrError() const { return ptrError_; }

  /// 128-bit fingerprint of the full dynamic state — memory, control,
  /// sync, store buffers and output (states differing only in what they
  /// printed must not merge) — maintained incrementally by every step.
  /// The explorer dedups by fingerprint only (docs/ANALYSIS.md).
  [[nodiscard]] support::Hash128 stateHash128() const { return hash_; }

  /// The fingerprint's canonical definition, summed from scratch over
  /// every state component. stateHash128() always equals it; tests and
  /// debug assertions check that.
  [[nodiscard]] support::Hash128 recomputeHash128() const {
    support::Hash128 h;
    const long long* c = cells();
    for (std::size_t i = 0; i < layout_->cells_; ++i)
      if (c[i] != 0) add(h, cellTerm(i, c[i]));
    for (std::size_t s = 0; s < layout_->symbols_; ++s) {
      if (events()[s] != 0) add(h, eventTerm(s));
      if (holders()[s] != kNoHolder) add(h, holderTerm(s, holders()[s]));
    }
    for (std::size_t ti = 0; ti < threads_; ++ti) {
      const ThreadRec& t = thread(ti);
      add(h, threadTerm(ti, t));
      for (std::uint32_t d = 0; d < t.depth; ++d)
        add(h, frameTerm(ti, d, frames(ti)[d]));
      for (std::uint32_t p = 0; p < t.bufLen; ++p)
        add(h, bufTerm(ti, p, buf(ti)[p]));
    }
    for (std::uint32_t i = 0; i < outLen_; ++i)
      add(h, outputTerm(i, outputArr()[i]));
    if (assertFailed_) add(h, flagTerm(kTagAssert));
    if (ptrError_) add(h, flagTerm(kTagPtrError));
    if (lockError_) add(h, flagTerm(kTagLockError));
    return h;
  }

 private:
  static constexpr std::uint32_t kNoHolder = static_cast<std::uint32_t>(-1);
  /// Spare bytes every copy allocates past the state it copies, so a
  /// successor's first print appends without regrowing the block.
  static constexpr std::size_t kSlackBytes = 32;

  struct Frame {
    const ir::StmtList* list = nullptr;
    /// When this frame is a while-loop body, the loop statement;
    /// reaching the end of the list re-evaluates its condition.
    const ir::Stmt* loop = nullptr;
    std::size_t idx = 0;
  };

  /// Fixed part of one thread's record; its frame stack (layout
  /// frameCap_ slots) and store buffer (bufCap_ slots) follow it.
  struct ThreadRec {
    /// The statement list this thread was spawned to run (the program
    /// body for the main thread, the cobegin arm's body otherwise).
    /// Points into the shared read-only program; the explorer's DPOR
    /// layer keys static whole-body footprints by it.
    const ir::StmtList* rootList;
    /// Number of barrier episodes this thread has passed.
    std::uint64_t barrierEpoch;
    SymbolId waitSym;  ///< lock/event blocked on (last one, once resumed)
    std::uint32_t depth;   ///< frames in use
    /// TSO only: buffered stores in use, a FIFO of issued-but-uncommitted
    /// stores to shared cells. The owning thread forwards from it
    /// (newest entry for the cell wins); other threads cannot see it
    /// until a flush action commits the oldest entry. Always 0 under SC,
    /// and 0 once the thread is Done (sync operations drain it before
    /// they run; a finishing thread Drains it via flush actions).
    std::uint32_t bufLen;
    std::uint32_t childBegin;  ///< threads spawned by the latest cobegin
    std::uint32_t childCount;
    /// Spawn group (all arms of the same cobegin, this thread included);
    /// barrier statements rendezvous within it.
    std::uint32_t sibBegin;
    std::uint32_t sibCount;
    Status status;
  };
  static_assert(sizeof(ThreadRec) % alignof(std::uint64_t) == 0);

  // -- Block geometry ------------------------------------------------------
  // [cells: int64 x cells][holders: uint32 x symbols][events: uint8 x
  // symbols][threads: stride x threads_][output: int64 x outLen_], every
  // region 8-byte aligned.

  [[nodiscard]] static constexpr std::size_t align8(std::size_t n) {
    return (n + 7) & ~std::size_t{7};
  }
  [[nodiscard]] std::size_t holdersOff() const {
    return layout_->cells_ * sizeof(long long);
  }
  [[nodiscard]] std::size_t eventsOff() const {
    return holdersOff() + align8(layout_->symbols_ * sizeof(std::uint32_t));
  }
  [[nodiscard]] std::size_t threadsOff() const {
    return eventsOff() + align8(layout_->symbols_);
  }
  [[nodiscard]] std::size_t stride() const {
    return sizeof(ThreadRec) + layout_->frameCap_ * sizeof(Frame) +
           layout_->bufCap_ * sizeof(BufferedStore);
  }
  [[nodiscard]] std::size_t outputOff() const {
    return threadsOff() + threads_ * stride();
  }
  [[nodiscard]] std::size_t usedBytes() const {
    return outputOff() + outLen_ * sizeof(long long);
  }

  // The block is the machine's own storage, reached through a pointer:
  // like unique_ptr::get(), these accessors are const and only the
  // mutators write through them.
  template <typename T>
  [[nodiscard]] T* at(std::size_t off) const {
    return reinterpret_cast<T*>(block_.get() + off);
  }
  [[nodiscard]] long long* cells() const { return at<long long>(0); }
  [[nodiscard]] std::uint32_t* holders() const {
    return at<std::uint32_t>(holdersOff());
  }
  [[nodiscard]] std::uint8_t* events() const {
    return at<std::uint8_t>(eventsOff());
  }
  [[nodiscard]] ThreadRec& thread(std::size_t ti) const {
    return *at<ThreadRec>(threadsOff() + ti * stride());
  }
  [[nodiscard]] Frame* frames(std::size_t ti) const {
    return at<Frame>(threadsOff() + ti * stride() + sizeof(ThreadRec));
  }
  [[nodiscard]] BufferedStore* buf(std::size_t ti) const {
    return at<BufferedStore>(threadsOff() + ti * stride() + sizeof(ThreadRec) +
                             layout_->frameCap_ * sizeof(Frame));
  }
  [[nodiscard]] long long* outputArr() const {
    return at<long long>(outputOff());
  }

  void allocate(std::size_t bytes) {
    block_.reset(new std::byte[bytes]);
    capacity_ = bytes;
  }

  /// Makes room for `bytes` of state, moving the block when it must grow
  /// (references into the old block die).
  void reserve(std::size_t bytes) {
    if (bytes <= capacity_) return;
    std::unique_ptr<std::byte[]> old = std::move(block_);
    const std::size_t used = usedBytes();
    allocate(std::max(bytes + kSlackBytes, capacity_ + capacity_ / 2));
    std::memcpy(block_.get(), old.get(), used);
  }

  ThreadRec& initThread(std::size_t ti, const ir::StmtList* root) {
    ThreadRec& t = thread(ti);
    t = ThreadRec{root, 0, SymbolId{}, 0, 0, 0, 0, 0, 0, Status::Runnable};
    return t;
  }

  // -- Fingerprint terms ----------------------------------------------------
  // Each component's term is a pure function of the component's identity
  // (tag and indices, packed into `key`) and its value; the two halves
  // mix through independent finalizers from independent seeds.

  enum Tag : std::uint64_t {
    kTagCell = 1,
    kTagEvent,
    kTagHolder,
    kTagThread,
    kTagFrame,
    kTagBuf,
    kTagOutput,
    kTagAssert,
    kTagPtrError,
    kTagLockError,
  };

  [[nodiscard]] static std::uint64_t mixA(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  }
  [[nodiscard]] static std::uint64_t mixB(std::uint64_t k) {
    k ^= k >> 30;
    k *= 0xbf58476d1ce4e5b9ull;
    k ^= k >> 27;
    k *= 0x94d049bb133111ebull;
    k ^= k >> 31;
    return k;
  }
  [[nodiscard]] static std::uint64_t key(Tag tag, std::uint64_t a,
                                         std::uint64_t b = 0) {
    return (static_cast<std::uint64_t>(tag) << 56) ^ (b << 32) ^ a;
  }
  template <typename... V>
  [[nodiscard]] static support::Hash128 term(std::uint64_t k, V... values) {
    std::uint64_t a = mixA(k ^ 0x243f6a8885a308d3ull);
    std::uint64_t b = mixB(k + 0x13198a2e03707344ull);
    ((a = mixA(a ^ static_cast<std::uint64_t>(values)),
      b = mixB(b + static_cast<std::uint64_t>(values))),
     ...);
    return {a, b};
  }
  static void add(support::Hash128& h, const support::Hash128& t) {
    h.hi += t.hi;
    h.lo += t.lo;
  }
  static void sub(support::Hash128& h, const support::Hash128& t) {
    h.hi -= t.hi;
    h.lo -= t.lo;
  }

  [[nodiscard]] static support::Hash128 cellTerm(std::size_t c, long long v) {
    return term(key(kTagCell, c), v);
  }
  [[nodiscard]] static support::Hash128 eventTerm(std::size_t s) {
    return term(key(kTagEvent, s), 1);
  }
  [[nodiscard]] static support::Hash128 holderTerm(std::size_t s,
                                                   std::uint32_t ti) {
    return term(key(kTagHolder, s), ti);
  }
  [[nodiscard]] static support::Hash128 threadTerm(std::size_t ti,
                                                   const ThreadRec& t) {
    return term(key(kTagThread, ti),
                static_cast<std::uint64_t>(t.status) |
                    (static_cast<std::uint64_t>(t.waitSym.value()) << 8),
                t.barrierEpoch);
  }
  [[nodiscard]] static support::Hash128 frameTerm(std::size_t ti,
                                                  std::uint32_t d,
                                                  const Frame& f) {
    return term(key(kTagFrame, ti, d), reinterpret_cast<std::uintptr_t>(f.list),
                reinterpret_cast<std::uintptr_t>(f.loop), f.idx);
  }
  [[nodiscard]] static support::Hash128 bufTerm(std::size_t ti,
                                                std::uint32_t p,
                                                const BufferedStore& st) {
    return term(key(kTagBuf, ti, p), st.cell, st.value);
  }
  [[nodiscard]] static support::Hash128 outputTerm(std::uint32_t i,
                                                   long long v) {
    return term(key(kTagOutput, i), v);
  }
  [[nodiscard]] static support::Hash128 flagTerm(Tag tag) {
    return term(key(tag, 0), 1);
  }

  // -- Hash-maintaining mutators --------------------------------------------

  void setCell(std::uint32_t c, long long v) {
    long long& cell = cells()[c];
    if (cell == v) return;
    if (cell != 0) sub(hash_, cellTerm(c, cell));
    if (v != 0) add(hash_, cellTerm(c, v));
    cell = v;
  }

  void setHolder(SymbolId m, std::uint32_t ti) {
    std::uint32_t& h = holders()[m.index()];
    if (h != kNoHolder) sub(hash_, holderTerm(m.index(), h));
    if (ti != kNoHolder) add(hash_, holderTerm(m.index(), ti));
    h = ti;
  }

  /// Applies `change` to thread `ti`'s status word (status, wait symbol,
  /// barrier epoch), re-hashing it.
  template <typename F>
  void updateThread(std::size_t ti, F&& change) {
    ThreadRec& t = thread(ti);
    sub(hash_, threadTerm(ti, t));
    change(t);
    add(hash_, threadTerm(ti, t));
  }
  void setStatus(std::size_t ti, Status st) {
    updateThread(ti, [st](ThreadRec& t) { t.status = st; });
  }

  void pushFrame(std::size_t ti, Frame f) {
    ThreadRec& t = thread(ti);
    assert(t.depth < layout_->frameCap_);
    frames(ti)[t.depth] = f;
    add(hash_, frameTerm(ti, t.depth, f));
    ++t.depth;
  }
  void popFrame(std::size_t ti) {
    ThreadRec& t = thread(ti);
    --t.depth;
    sub(hash_, frameTerm(ti, t.depth, frames(ti)[t.depth]));
  }
  void setTopIdx(std::size_t ti, std::size_t idx) {
    const std::uint32_t d = thread(ti).depth - 1;
    Frame& f = frames(ti)[d];
    sub(hash_, frameTerm(ti, d, f));
    f.idx = idx;
    add(hash_, frameTerm(ti, d, f));
  }

  void setPtrError() {
    if (ptrError_) return;
    ptrError_ = true;
    add(hash_, flagTerm(kTagPtrError));
  }

  void setLockError() {
    if (lockError_) return;
    lockError_ = true;
    add(hash_, flagTerm(kTagLockError));
  }

  /// Appends every shared cell of the body's variables (all cells of an
  /// array: its index is only known mid-body).
  void addBodyCells(const AtomicBody& body, PendingAccess& acc) const {
    const MachineLayout& L = *layout_;
    auto addAll = [&](std::span<const SymbolId> vars,
                      std::vector<std::pair<std::uint32_t, SymbolId>>& out) {
      for (SymbolId v : vars) {
        const std::uint32_t n = L.arraySize_[v.index()];
        if (n == 0) {
          out.emplace_back(static_cast<std::uint32_t>(v.index()), v);
          continue;
        }
        for (std::uint32_t c = 0; c < n; ++c)
          out.emplace_back(L.base_[v.index()] + c, v);
      }
    };
    addAll(body.reads, acc.reads);
    addAll(body.writes, acc.writes);
  }

  void appendOutput(long long v) {
    reserve(usedBytes() + sizeof(long long));
    outputArr()[outLen_] = v;
    add(hash_, outputTerm(outLen_, v));
    ++outLen_;
  }

  // -- Semantics -------------------------------------------------------------

  /// True when thread `ti`'s next program action must wait for its own
  /// store buffer to drain under TSO: fences, atomic accesses and every
  /// synchronization operation behave like x86 locked instructions, and
  /// a plain shared store needs a free buffer slot.
  [[nodiscard]] bool tsoBlocked(std::size_t ti) const {
    const ThreadRec& t = thread(ti);
    if (t.bufLen == 0) return false;
    const ir::Stmt* s = pendingStmt(ti);
    if (s == nullptr) return false;
    switch (s->kind) {
      case ir::StmtKind::Fence:
      case ir::StmtKind::Lock:
      case ir::StmtKind::Unlock:
      case ir::StmtKind::Set:
      case ir::StmtKind::Wait:
      case ir::StmtKind::Barrier:
      case ir::StmtKind::Cobegin:
        return true;
      case ir::StmtKind::Assign:
        if (s->atomic) return true;
        if (s->lhsKind == ir::LValueKind::Var)
          return layout_->sharedVar_[s->lhs.index()] &&
                 t.bufLen >= layout_->bufCap_;
        // Indexed and indirect stores may hit any shared cell, so they
        // conservatively wait for a free buffer slot.
        return t.bufLen >= layout_->bufCap_;
      default:
        return false;
    }
  }

  [[nodiscard]] bool canProgress(std::size_t ti) const {
    const ThreadRec& t = thread(ti);
    switch (t.status) {
      case Status::Runnable:
        return layout_->model_ == support::MemoryModel::SC || !tsoBlocked(ti);
      case Status::WaitLock:
        return holders()[t.waitSym.index()] == kNoHolder;
      case Status::WaitEvent:
        return events()[t.waitSym.index()] != 0;
      case Status::BarrierWait: {
        // Released once every sibling has arrived at this episode's
        // barrier, already passed it, or finished.
        for (std::size_t s : siblingsOf(ti)) {
          if (s == ti) continue;
          const ThreadRec& sib = thread(s);
          if (sib.status == Status::Done || sib.status == Status::Draining)
            continue;
          if (sib.barrierEpoch > t.barrierEpoch) continue;
          if (sib.status == Status::BarrierWait &&
              sib.barrierEpoch == t.barrierEpoch)
            continue;
          return false;
        }
        return true;
      }
      case Status::Joining: {
        for (std::size_t c : childrenOf(ti))
          if (thread(c).status != Status::Done) return false;
        return true;
      }
      case Status::Draining:  // only flush actions remain
      case Status::Done:
        return false;
    }
    return false;
  }

  [[nodiscard]] bool inRange(long long addr) const {
    return addr >= 1 && addr <= static_cast<long long>(layout_->cells_);
  }

  /// Cell of `arr[idx]` under total semantics: the index is reduced
  /// modulo the array size (negative indices wrap), so every indexed
  /// access hits a real cell of its own array.
  [[nodiscard]] std::uint32_t cellOfIndex(SymbolId arr, long long idx) const {
    const std::uint32_t n = layout_->arraySize_[arr.index()];
    if (n == 0) return static_cast<std::uint32_t>(arr.index());
    long long m = idx % n;
    if (m < 0) m += n;
    return layout_->base_[arr.index()] + static_cast<std::uint32_t>(m);
  }

  /// Load of one cell in a thread's view: under TSO the newest matching
  /// entry of the thread's own store buffer wins before shared memory.
  [[nodiscard]] long long loadCell(std::uint32_t cell,
                                   std::span<const BufferedStore> view) const {
    for (auto it = view.rbegin(); it != view.rend(); ++it)
      if (it->cell == cell) return it->value;
    return cells()[cell];
  }

  /// Evaluates in a thread's view of memory. Dereferencing an address
  /// outside [1, #cells] is a total operation: the load yields 0 and,
  /// when `err` is non-null, flags the pointer error (null while
  /// peeking, e.g. from pendingAccesses()).
  long long eval(const ir::Expr& e, std::span<const BufferedStore> view,
                 bool* err = nullptr) const {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        return e.intValue;
      case ir::ExprKind::VarRef:
        return loadCell(static_cast<std::uint32_t>(e.var.index()), view);
      case ir::ExprKind::Unary:
        return ir::evalUnOp(e.unop, eval(*e.operands[0], view, err));
      case ir::ExprKind::Binary:
        return ir::evalBinOp(e.binop, eval(*e.operands[0], view, err),
                             eval(*e.operands[1], view, err));
      case ir::ExprKind::Call: {
        std::vector<long long> args;
        args.reserve(e.operands.size());
        for (const auto& a : e.operands) args.push_back(eval(*a, view, err));
        return externalCall(e.callee, args);
      }
      case ir::ExprKind::AddrOf:
        if (e.operands.empty())
          return layout_->arraySize_[e.var.index()] == 0
                     ? static_cast<long long>(e.var.index()) + 1
                     : static_cast<long long>(layout_->base_[e.var.index()]) +
                           1;
        return static_cast<long long>(
                   cellOfIndex(e.var, eval(*e.operands[0], view, err))) +
               1;
      case ir::ExprKind::Deref: {
        const long long a = eval(*e.operands[0], view, err);
        if (!inRange(a)) {
          if (err != nullptr) *err = true;
          return 0;
        }
        return loadCell(static_cast<std::uint32_t>(a - 1), view);
      }
      case ir::ExprKind::Index:
        return loadCell(cellOfIndex(e.var, eval(*e.operands[0], view, err)),
                        view);
    }
    return 0;
  }

  /// eval() in thread `ti`'s executing (not peeking) position: pointer
  /// errors are recorded.
  long long evalExec(const ir::Expr& e, std::size_t ti) {
    bool err = false;
    const long long v = eval(e, storeBufOf(ti), &err);
    if (err) setPtrError();
    return v;
  }

  /// Advances past the current statement, unwinding completed frames and
  /// re-evaluating while-loop conditions.
  void advance(std::size_t ti) {
    setTopIdx(ti, frames(ti)[thread(ti).depth - 1].idx + 1);
    unwind(ti);
  }

  void unwind(std::size_t ti) {
    while (thread(ti).depth != 0) {
      const Frame& f = frames(ti)[thread(ti).depth - 1];
      if (f.idx < f.list->size()) return;
      if (f.loop != nullptr && evalExec(*f.loop->expr, ti) != 0) {
        setTopIdx(ti, 0);  // next iteration (loop bodies are never empty)
        return;
      }
      popFrame(ti);
      if (thread(ti).depth != 0)
        setTopIdx(ti, frames(ti)[thread(ti).depth - 1].idx + 1);
    }
    // Retiring thread: leftover buffered stores stay in the buffer and
    // commit through ordinary flush actions (FIFO), so another thread
    // can still read the old values after this one's last program step
    // — the store-buffering litmus needs exactly that window. The
    // cobegin join waits for the drain, so Done threads never hold
    // invisible writes.
    setStatus(ti, thread(ti).bufLen == 0 ? Status::Done : Status::Draining);
  }

  /// Commits the oldest buffered store of thread `ti`.
  void flush(std::size_t ti) {
    ThreadRec& t = thread(ti);
    BufferedStore* b = buf(ti);
    assert(t.bufLen != 0);
    const BufferedStore st = b[0];
    for (std::uint32_t p = 0; p < t.bufLen; ++p) sub(hash_, bufTerm(ti, p, b[p]));
    --t.bufLen;
    std::memmove(b, b + 1, t.bufLen * sizeof(BufferedStore));
    for (std::uint32_t p = 0; p < t.bufLen; ++p) add(hash_, bufTerm(ti, p, b[p]));
    setCell(st.cell, st.value);
    if (t.bufLen == 0 && t.status == Status::Draining)
      setStatus(ti, Status::Done);
  }

  void step(std::size_t ti) {
    // Resolve a blocked state first: the blocking operation completes
    // now.
    switch (thread(ti).status) {
      case Status::WaitLock:
        assert(holders()[thread(ti).waitSym.index()] == kNoHolder);
        setHolder(thread(ti).waitSym, static_cast<std::uint32_t>(ti));
        [[fallthrough]];
      case Status::WaitEvent:
      case Status::Joining:
        setStatus(ti, Status::Runnable);
        advance(ti);
        return;
      case Status::BarrierWait:
        updateThread(ti, [](ThreadRec& t) {
          ++t.barrierEpoch;
          t.status = Status::Runnable;
        });
        advance(ti);
        return;
      default:
        break;
    }

    assert(thread(ti).depth != 0);
    const Frame& f = frames(ti)[thread(ti).depth - 1];
    const ir::Stmt& s = *(*f.list)[f.idx];

    switch (s.kind) {
      case ir::StmtKind::Assign: {
        const long long v = evalExec(*s.expr, ti);
        // Resolve the target cell. A deref store through an out-of-range
        // address is dropped (total semantics, mirroring loads of 0) and
        // flags the pointer error.
        std::uint32_t cell = 0;
        bool haveCell = true;
        switch (s.lhsKind) {
          case ir::LValueKind::Var:
            cell = static_cast<std::uint32_t>(s.lhs.index());
            break;
          case ir::LValueKind::Index:
            cell = cellOfIndex(s.lhs, evalExec(*s.lhsAddr, ti));
            break;
          case ir::LValueKind::Deref: {
            const long long a = evalExec(*s.lhsAddr, ti);
            if (!inRange(a)) {
              setPtrError();
              haveCell = false;
            } else {
              cell = static_cast<std::uint32_t>(a - 1);
            }
            break;
          }
        }
        // TSO: plain stores to shared memory enter the issuing thread's
        // FIFO buffer and become visible only at a later flush action.
        // Atomic stores (and every SC store) commit immediately;
        // tsoBlocked() already guaranteed an empty buffer for atomics
        // and a free slot for plain stores.
        if (haveCell) {
          if (layout_->model_ == support::MemoryModel::TSO && !s.atomic &&
              layout_->sharedCell_[cell]) {
            ThreadRec& t = thread(ti);
            assert(t.bufLen < layout_->bufCap_);
            const BufferedStore st{cell, v};
            buf(ti)[t.bufLen] = st;
            add(hash_, bufTerm(ti, t.bufLen, st));
            ++t.bufLen;
          } else {
            setCell(cell, v);
          }
        }
        advance(ti);
        return;
      }
      case ir::StmtKind::CallStmt:
        (void)evalExec(*s.expr, ti);
        advance(ti);
        return;
      case ir::StmtKind::Print:
        appendOutput(evalExec(*s.expr, ti));
        advance(ti);
        return;
      case ir::StmtKind::Fence:
        // tsoBlocked() gates execution on an empty buffer, so by the time
        // the fence runs it has nothing left to drain.
        advance(ti);
        return;
      case ir::StmtKind::Assert:
        if (evalExec(*s.expr, ti) == 0) {
          // Trap: the whole machine halts, nothing else executes.
          // Pending buffered stores die with it (Done implies an empty
          // buffer, so no flush actions survive the trap).
          assertFailed_ = true;
          add(hash_, flagTerm(kTagAssert));
          for (std::size_t u = 0; u < threads_; ++u) {
            ThreadRec& th = thread(u);
            for (std::uint32_t p = 0; p < th.bufLen; ++p)
              sub(hash_, bufTerm(u, p, buf(u)[p]));
            th.bufLen = 0;
            setStatus(u, Status::Done);
          }
        } else {
          advance(ti);
        }
        return;
      case ir::StmtKind::Lock:
        if (holders()[s.sync.index()] == kNoHolder) {
          setHolder(s.sync, static_cast<std::uint32_t>(ti));
          advance(ti);
        } else {
          updateThread(ti, [&s](ThreadRec& t) {
            t.status = Status::WaitLock;
            t.waitSym = s.sync;
          });
        }
        return;
      case ir::StmtKind::Unlock:
        if (holders()[s.sync.index()] != ti)
          setLockError();
        else
          setHolder(s.sync, kNoHolder);
        advance(ti);
        return;
      case ir::StmtKind::Set:
        if (events()[s.sync.index()] == 0) {
          events()[s.sync.index()] = 1;
          add(hash_, eventTerm(s.sync.index()));
        }
        advance(ti);
        return;
      case ir::StmtKind::Wait:
        if (events()[s.sync.index()] != 0) {
          advance(ti);
        } else {
          updateThread(ti, [&s](ThreadRec& t) {
            t.status = Status::WaitEvent;
            t.waitSym = s.sync;
          });
        }
        return;
      case ir::StmtKind::Barrier:
        if (thread(ti).sibCount <= 1)
          advance(ti);  // no partners: a barrier alone is a no-op
        else
          setStatus(ti, Status::BarrierWait);
        return;
      case ir::StmtKind::If: {
        const bool taken = evalExec(*s.expr, ti) != 0;
        const ir::StmtList& body = taken ? s.thenBody : s.elseBody;
        if (body.empty())
          advance(ti);
        else
          pushFrame(ti, Frame{&body, nullptr, 0});
        return;
      }
      case ir::StmtKind::While:
        if (evalExec(*s.expr, ti) != 0) {
          if (!s.thenBody.empty()) pushFrame(ti, Frame{&s.thenBody, &s, 0});
          // Empty body + true condition: stay put and re-evaluate — a
          // spin-wait burns fuel instead of being skipped.
        } else {
          advance(ti);
        }
        return;
      case ir::StmtKind::Cobegin:
        spawn(ti, s);
        return;
    }
  }

  /// Appends one thread per cobegin arm (regrowing the block: the output
  /// moves up by the new records) and parks the parent on their join.
  void spawn(std::size_t ti, const ir::Stmt& s) {
    const std::size_t k = s.threads.size();
    const std::size_t first = threads_;
    const std::size_t grow = k * stride();
    const std::size_t outBytes = outLen_ * sizeof(long long);
    reserve(usedBytes() + grow);
    std::memmove(block_.get() + outputOff() + grow,
                 block_.get() + outputOff(), outBytes);
    threads_ += k;
    for (std::size_t j = 0; j < k; ++j) {
      const ir::StmtList& body = s.threads[j].body;
      ThreadRec& child = initThread(first + j, &body);
      child.sibBegin = static_cast<std::uint32_t>(first);
      child.sibCount = static_cast<std::uint32_t>(k);
      if (body.empty()) child.status = Status::Done;
      add(hash_, threadTerm(first + j, child));
      if (!body.empty()) pushFrame(first + j, Frame{&body, nullptr, 0});
    }
    updateThread(ti, [&](ThreadRec& t) {
      t.childBegin = static_cast<std::uint32_t>(first);
      t.childCount = static_cast<std::uint32_t>(k);
      t.status = Status::Joining;
    });
  }

  const MachineLayout* layout_ = nullptr;
  std::unique_ptr<std::byte[]> block_;
  std::size_t capacity_ = 0;  ///< bytes allocated for block_
  std::size_t threads_ = 0;
  std::uint32_t outLen_ = 0;
  bool lockError_ = false;
  bool assertFailed_ = false;
  bool ptrError_ = false;
  support::Hash128 hash_;
};

}  // namespace cssame::interp
