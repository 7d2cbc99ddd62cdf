/**
 * @file
 * The simulated core: an execute-at-fetch functional engine fused with a
 * scoreboard-style out-of-order timing model.
 *
 * Methodology (matches trace-driven simulators such as Sniper):
 *  - Instructions are processed in fetch order; architectural state is
 *    updated immediately (wrong paths are never fetched).
 *  - The timing model computes, per instruction, its fetch, dispatch,
 *    issue, completion and commit cycles from: fetch bandwidth (taken
 *    branches end fetch groups; I-cache misses stall), ROB occupancy,
 *    register dependences (renaming collapses to last-writer tracking),
 *    functional-unit contention, cache latencies, and the 10-cycle
 *    front-end refill after a mispredicted branch resolves.
 *  - PBS (when enabled) steers marked probabilistic branches: a steered
 *    fetch needs no prediction and can never mispredict; value swaps are
 *    applied architecturally at the probabilistic instructions, exactly
 *    as Section V of the paper specifies.
 *
 * Execution paths
 * ---------------
 * The hot loop runs from a predecoded @ref isa::DecodedImage: operands,
 * branch targets, FU classes and per-PC PBS metadata are resolved once
 * at construction, and the steady-state loop performs no heap
 * allocation (fixed rings, flat tables and a batch record allocated at
 * construction replace the per-instruction container churn). Both
 * fidelities run the predecoded path on the superblock executor the
 * functional engine uses (exec/superblock.hh):
 *  - mpki (SimMode::Functional): the direction predictor and the PBS
 *    context notes are its branch observer;
 *  - timing (SimMode::Timing): the same observer also records every
 *    block entered, every LD/ST address and every JZ/JNZ/CFD_JNZ
 *    outcome (taken, mispredicted), and after each run of at most
 *    kBatch instructions replayTiming times those instructions in
 *    program order, with the pipeline cursor (Pipe) in a local.
 * Prob ops stay outside the blocks and single-step through stepOneOn,
 * which owns PBS steering (it needs the exact fetch cycle). The timing
 * equations exist once, as the inline per-instruction steps fetchStep,
 * issueStep, redirect, pushStore and retireStep, which the replay and
 * stepOneOn share. The original interpretation straight out of
 * @ref isa::Program is kept selectable via CoreConfig::execPath as the
 * differential-testing reference for both fidelities; both paths
 * produce bit-identical architectural state, statistics, cache counts
 * and traces (tests/predecode_equiv_test.cc,
 * tests/mpki_equiv_test.cc). `PBS_FUNC_DISPATCH` selects the core's
 * executor backend as it does the functional engine's: `switch`
 * single-steps every instruction, `superblock-portable` forces the
 * function-pointer trampoline.
 */

#ifndef PBS_CPU_CORE_HH
#define PBS_CPU_CORE_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bpred/predictor.hh"
#include "core/pbs_engine.hh"
#include "cpu/arch_state.hh"
#include "cpu/core_config.hh"
#include "exec/superblock.hh"
#include "isa/decoded_image.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace pbs::cpu {

/**
 * One dynamic probabilistic-branch execution, for the randomness
 * harness: which instance's values were consumed by this instance.
 */
struct ProbTraceEntry
{
    uint16_t probId = 0;
    uint64_t selfSeq = 0;      ///< this instance's index (per branch)
    uint64_t consumedSeq = 0;  ///< instance whose values steered it
    bool taken = false;
    bool steered = false;
};

/** The simulated core. */
class Core
{
  public:
    Core(const isa::Program &prog, const CoreConfig &cfg);

    /** Run until HALT (or the instruction limit). */
    void run();

    /** Execute at most @p n further instructions. @return #executed. */
    uint64_t step(uint64_t n);

    bool halted() const { return halted_; }

    const CoreStats &stats() const { return stats_; }
    const core::PbsEngine &pbs() const { return pbs_; }
    const mem::SparseMemory &memory() const { return mem_; }
    mem::SparseMemory &memory() { return mem_; }
    const mem::MemoryHierarchy &caches() const { return hierarchy_; }
    const bpred::BranchPredictor &predictor() const { return *pred_; }

    /** The predecoded image the core executes from. */
    const isa::DecodedImage &image() const { return image_; }

    uint64_t reg(unsigned r) const { return regs_[r]; }
    double regDouble(unsigned r) const;
    uint64_t pc() const { return pc_; }

    /** Snapshot the architectural state (registers, memory, PC,
     *  prob-instance counters). Timing state is not captured. */
    ArchState saveArch() const;

    /**
     * Replace the architectural state (sampled-simulation restore).
     * Timing state, statistics, the predictor, the caches and the PBS
     * engine are left as they are — restore into a freshly
     * constructed core and run a warmup interval before measuring.
     * Probabilistic groups open at capture resume with exact PBS-off
     * semantics (see cpu/arch_state.hh).
     * @throws std::invalid_argument if @p state's probSeq table does
     *         not match this core's program.
     */
    void restoreArch(const ArchState &state);

    /** Per-dynamic-probabilistic-branch trace (traceProbBranches). */
    const std::vector<ProbTraceEntry> &probTrace() const
    {
        return probTrace_;
    }

  private:
    // --- functional helpers ---
    uint64_t readReg(unsigned r) const { return r ? regs_[r] : 0; }
    void writeReg(unsigned r, uint64_t v);
    void writeRegD(unsigned r, double v);
    static bool evalCmp(isa::CmpOp op, uint64_t a, uint64_t b);
    void stepOne();

    /** step(n) on the superblock executor (Decoded cores). */
    uint64_t stepSuper(uint64_t n);

    /** The predictor and PBS notes as the executor's branch observer. */
    struct BranchObserver;

    /** BranchObserver plus the batch record the timing replay reads. */
    struct TimingObserver;

    /**
     * One instruction on either execution path. @tparam Op is
     * isa::DecodedOp (predecoded path) or isa::Instruction (legacy
     * reference path); the shared field names keep the functional
     * semantics textually identical across both.
     */
    template <class Op> void stepOneOn(const Op &inst);

    // --- timing model ---
    struct FuSpec
    {
        isa::FuKind cls;
        unsigned latency;
        bool pipelined;
    };

    /**
     * The pipeline cursor of the timing model: everything the
     * per-instruction steps below read and write besides the register
     * scoreboard, the FU pools, the ROB ring and the store queue. The
     * block replay copies it into a local for a whole batch.
     */
    struct Pipe
    {
        uint64_t fetchCycle = 0;
        uint64_t frontendReadyAt = 0;    ///< redirect gate
        uint64_t lastDispatchCycle = 0;
        uint64_t lastCommitCycle = 0;    ///< == stats_.cycles (monotonic)
        uint64_t lastFetchLine = ~uint64_t(0);
        unsigned fetchedInCycle = 0;
        unsigned dispatchedInCycle = 0;
        unsigned committedInCycle = 0;
        unsigned robSlot = 0;            ///< ring cursor (== n % robSize)
        bool robFull = false;            ///< n >= robSize
    };

    // The timing equations, once: stepOneOn and replayTiming both call
    // these per instruction, in this order: fetchStep, the data access
    // (dataAccess, then storeDepReady or the legacy scanStoreQueue),
    // issueStep, redirect on a mispredict, pushStore, retireStep. They
    // are forced inline so a caller's Pipe stays in registers.

    /** Fetch bandwidth, the redirect gate and the I-cache line charge.
     *  @return the fetch cycle. */
    [[gnu::always_inline]] uint64_t fetchStep(Pipe &p, uint64_t pc);
    /** Dispatch (bandwidth, ROB), register dependences and FU issue;
     *  @p srcs must point at 3 REG_ZERO-padded source registers.
     *  @return the completion cycle. */
    [[gnu::always_inline]] uint64_t issueStep(Pipe &p, const FuSpec &spec,
                                              const uint8_t *srcs,
                                              uint64_t fetch,
                                              uint64_t memLatency);
    [[gnu::always_inline]] void redirect(Pipe &p,
                                         uint64_t resolveCycle) const;
    /** Publish the destination, end the fetch group after taken
     *  control flow, and commit. */
    [[gnu::always_inline]] void retireStep(Pipe &p, int dst, uint64_t fetch,
                                           uint64_t done, bool endsGroup);

    FuSpec fuSpecFor(const isa::Instruction &inst) const;

    /** Completion cycle of the newest queued store to @p key, or 0,
     *  through the store index (predecoded path). */
    [[gnu::always_inline]] uint64_t storeDepReady(uint64_t key) const;
    /** Exact newest-first ring scan: the same answer without the
     *  index (legacy reference path). */
    uint64_t scanStoreQueue(uint64_t key) const;
    [[gnu::always_inline]] void pushStore(uint64_t key, uint64_t done);

    /**
     * Resolve a conditional branch against the direction predictor and
     * count a misprediction. @return true when it mispredicted (the
     * timing model then redirects at the branch's completion).
     */
    bool predictAndTrain(uint64_t pc, bool taken, bool isProb);

    /**
     * Timing for the instructions the last executor run retired, in
     * program order, from the DecodedOp static data plus the recorded
     * effective addresses and branch outcomes.
     */
    void replayTiming(const TimingObserver &obs);

    // --- per-Op-representation accessors (predecoded vs legacy) ---
    static FuSpec opFuSpec(const Core &c, const isa::DecodedOp &op);
    static FuSpec opFuSpec(const Core &c, const isa::Instruction &op);
    static unsigned opSrcRegs(const isa::DecodedOp &op,
                              std::array<uint8_t, 3> &srcs);
    static unsigned opSrcRegs(const isa::Instruction &op,
                              std::array<uint8_t, 3> &srcs);
    uint64_t opProbJmpPc(const isa::DecodedOp &op, uint64_t pc) const;
    uint64_t opProbJmpPc(const isa::Instruction &op, uint64_t pc) const;

    // --- members ---
    isa::Program prog_;  // owned copy: callers may pass temporaries
    isa::DecodedImage image_;
    CoreConfig cfg_;

    // Functional state.
    std::array<uint64_t, isa::kNumRegs> regs_{};
    mem::SparseMemory mem_;
    uint64_t pc_ = 0;
    bool halted_ = false;

    /** Superblock executor (Decoded cores unless PBS_FUNC_DISPATCH is
     *  `switch`, else null) and its backend. */
    std::unique_ptr<exec::SuperblockImage> sb_;
    exec::FuncDispatch dispatch_ = exec::FuncDispatch::Switch;

    /**
     * Instructions one executor run may retire on a timing core: the
     * bound of the batch record the replay reads. Every retired block
     * holds at least one instruction, every LD/ST one address, and
     * every JZ/JNZ/CFD_JNZ one outcome, so no record outgrows it.
     */
    static constexpr uint64_t kBatch = 1024;

    /** The batch record, allocated at construction (timing cores on
     *  the executor only). Outcome bits: kTaken, kMispredicted. */
    struct Batch
    {
        std::array<const exec::Superblock *, kBatch> blocks;
        std::array<uint64_t, kBatch> addrs;
        std::array<uint8_t, kBatch> outcomes;
    };
    static constexpr uint8_t kTaken = 1;
    static constexpr uint8_t kMispredicted = 2;
    std::unique_ptr<Batch> batch_;

    // Timing state.
    mem::MemoryHierarchy hierarchy_;
    std::unique_ptr<bpred::BranchPredictor> pred_;
    bool predIsPerfect_ = false;  ///< cached virtual isPerfect()
    std::unique_ptr<bpred::BranchPredictor> sidePred_;  ///< Fig. 9 filter
    std::array<uint64_t, isa::kNumRegs> regReady_{};

    /** Per-FU-class unit pools: freeAt cycles, fixed at construction. */
    std::array<std::vector<uint64_t>,
               size_t(isa::FuKind::NUM_FU_KINDS)> fuFreeAt_;

    /** Configured latency of each latency class (indexed by LatKind). */
    std::array<unsigned, size_t(isa::LatKind::NUM_LAT_KINDS)> latOf_{};

    std::vector<uint64_t> commitRing_;   ///< commit cycles, ROB window
    Pipe pipe_;

    /**
     * Store queue: the last kStoreQueueDepth stores as (addr>>3, done)
     * pairs in a fixed ring (newest at (storeHead_ - 1) % depth).
     */
    static constexpr unsigned kStoreQueueDepth = 64;
    std::array<std::pair<uint64_t, uint64_t>, kStoreQueueDepth>
        storeQueue_{};
    unsigned storeHead_ = 0;   ///< next slot to write
    unsigned storeCount_ = 0;  ///< valid entries (<= depth)

    /**
     * Direct-mapped index over the store queue: the *newest* store to
     * each address key, with its global sequence number. A load probes
     * the index first:
     *  - slot key matches, sequence in window  -> exact hit
     *  - slot key matches, sequence expired    -> absence proven (the
     *    newest store to the address left the window, so every older
     *    one did too)
     *  - slot empty                            -> absence proven
     *  - slot holds a colliding key            -> fall back to the
     *    exact ring scan
     * so the result is always identical to scanning the ring.
     */
    struct StoreIdxEntry
    {
        uint64_t key = kNoStoreKey;
        uint64_t seq = 0;   ///< 1-based global store number
        uint64_t done = 0;
    };

    /** addr>>3 keys have their top bits clear, so ~0 is never a key. */
    static constexpr uint64_t kNoStoreKey = ~uint64_t(0);
    static constexpr unsigned kStoreIdxSlots = 256;

    static unsigned
    storeIdxSlot(uint64_t key)
    {
        return unsigned((key * 0x9e3779b97f4a7c15ull) >> 56) &
               (kStoreIdxSlots - 1);
    }

    std::array<StoreIdxEntry, kStoreIdxSlots> storeIdx_{};
    uint64_t storeSeq_ = 0;    ///< total stores so far

    // PBS state.
    core::PbsEngine pbs_;

    /** Legacy-path map: PROB_CMP pc -> closing PROB_JMP pc. */
    std::unordered_map<uint64_t, uint64_t> probJmpOf_;

    struct ProbGroup
    {
        uint64_t token = 0;
        bool steered = false;
        bool managed = false;   ///< still PBS-managed after exec checks
        bool condNew = false;   ///< comparison on the new values
        core::BranchRecord old;
        bool open = false;
    };

    /** Flat per-probId state (indexed by probId, sized at predecode). */
    std::vector<ProbGroup> probGroups_;
    std::vector<uint64_t> probSeq_;      ///< instance count per probId
    std::vector<ProbTraceEntry> probTrace_;

    CoreStats stats_;

    /** Base byte address of the instruction image (I-cache stream). */
    static constexpr uint64_t kTextBase = uint64_t(1) << 32;
};

}  // namespace pbs::cpu

#endif  // PBS_CPU_CORE_HH
