/**
 * @file
 * layer_probe: the benchmark's per-layer timer. It calls each module's
 * public functions directly, over the programs of one benchmark
 * workload, and prints one JSON object of layer metrics plus the
 * dynamic counts run.py reconciles against the pbs_exp artifacts.
 *
 *   layer_probe native <plan>   native reference outputs per program
 *   layer_probe layers <plan>   the per-layer table
 *
 * The plan is a line-oriented text file written by run.py:
 *
 *   program <workload> <scale> <seed>    (scale 0 = the default)
 *   point <workload> <scale> <seed> <predictor> <pbs 0|1> <detailed|mpki>
 *   predictors <p1,p2,...>
 *   jobs <n>                  pool size for the util layer
 *   tmp <dir>                 scratch directory (cache and store files)
 *
 * Branch, probabilistic-instance and memory streams are recorded by
 * single-stepping a FunctionalEngine through its public pc()/reg()/
 * image() accessors, one chunk at a time, and replayed into the
 * predictors, the PBS engine and the cache hierarchy exactly as the
 * mpki-mode core calls them. Only the replay loops are timed.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/pbs_engine.hh"
#include "cpu/core.hh"
#include "exp/cache.hh"
#include "exp/point.hh"
#include "isa/decoded_image.hh"
#include "mem/cache.hh"
#include "sampling/functional.hh"
#include "sampling/sampled.hh"
#include "sampling/store.hh"
#include "util/json.hh"
#include "util/task_pool.hh"
#include "workloads/common.hh"

namespace {

using namespace pbs;
using Clock = std::chrono::steady_clock;

/** Repeats of the short calls: build, decode and engine construction
 *  report the median, aggregation the mean. */
constexpr unsigned kRepeats = 5;
/** Instructions of each grid point the cpu layer times. */
constexpr uint64_t kCoreCap = 1'000'000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct ProgramSpec
{
    std::string workload;
    uint64_t scale = 0;
    uint64_t seed = 0;
};

struct PointSpec
{
    ProgramSpec prog;
    std::string predictor;
    bool pbs = false;
    bool mpki = false;
};

struct Plan
{
    std::vector<ProgramSpec> programs;
    std::vector<PointSpec> points;
    std::vector<std::string> predictors;
    unsigned jobs = 1;
    std::string tmp;
};

Plan
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read plan " + path);
    Plan plan;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string kind;
        if (!(ls >> kind))
            continue;
        if (kind == "program") {
            ProgramSpec p;
            ls >> p.workload >> p.scale >> p.seed;
            if (!ls.fail() && p.scale == 0) {
                p.scale =
                    workloads::benchmarkByName(p.workload).defaultScale;
            }
            plan.programs.push_back(p);
        } else if (kind == "point") {
            PointSpec pt;
            std::string mode;
            int pbs = 0;
            ls >> pt.prog.workload >> pt.prog.scale >> pt.prog.seed >>
                pt.predictor >> pbs >> mode;
            pt.pbs = pbs != 0;
            pt.mpki = mode == "mpki";
            plan.points.push_back(pt);
        } else if (kind == "predictors") {
            std::string list, name;
            ls >> list;
            std::istringstream names(list);
            while (std::getline(names, name, ','))
                plan.predictors.push_back(name);
        } else if (kind == "jobs") {
            ls >> plan.jobs;
        } else if (kind == "tmp") {
            ls >> plan.tmp;
        } else {
            throw std::runtime_error("unknown plan line: " + line);
        }
        if (ls.fail())
            throw std::runtime_error("malformed plan line: " + line);
    }
    return plan;
}

workloads::WorkloadParams
paramsOf(const ProgramSpec &p)
{
    workloads::WorkloadParams wp;
    wp.seed = p.seed;
    wp.scale = p.scale;
    return wp;
}

isa::Program
buildProgram(const ProgramSpec &p)
{
    return workloads::benchmarkByName(p.workload)
        .build(paramsOf(p), workloads::Variant::Marked);
}

std::string
programLabel(const ProgramSpec &p)
{
    return p.workload + "/" + std::to_string(p.scale) + "/" +
           std::to_string(p.seed);
}

// ---------------------------------------------------------------------
// Recorded streams.
// ---------------------------------------------------------------------

struct BranchEvent
{
    uint64_t pc;
    bool taken;
};

/** One call the mpki-mode core makes into the PBS engine. */
struct PbsEvent
{
    enum Kind : uint8_t { CmpFetchExec, Carrier, JmpExec, Branch, Call,
                          Return };
    Kind kind;
    uint16_t probId = 0;     ///< CmpFetchExec, Carrier, JmpExec: the group
    bool taken = false;      ///< JmpExec: the outcome; Branch: direction
    bool hasValue2 = false;  ///< JmpExec: the jump carries a value
    uint64_t pc = 0;         ///< branch pc (CmpFetchExec: the PROB_JMP pc)
    uint64_t a = 0;          ///< value1 (CmpFetchExec) or value2
    uint64_t b = 0;          ///< CmpFetchExec: operand; else the target
    uint64_t cycle = 0;      ///< fetch cycle (= instruction index)
    uint64_t seq = 0;        ///< JmpExec: dynamic instance index
};

/** Memory-hierarchy accesses in core order; top bit set = data load. */
constexpr uint64_t kDataBit = uint64_t(1) << 63;
/** Base byte address of the instruction image (as the core maps it). */
constexpr uint64_t kTextBase = uint64_t(1) << 32;
/** Fetch-to-execute delay of the mpki-mode core. */
constexpr uint64_t kExecDelay = cpu::CoreConfig{}.functionalExecDelay;

struct Streams
{
    std::vector<BranchEvent> branches;
    std::vector<PbsEvent> pbs;
    std::vector<uint64_t> mem;

    void
    clear()
    {
        branches.clear();
        pbs.clear();
        mem.clear();
    }
};

/**
 * Single-steps a PBS-off functional run, appending to a Streams chunk
 * what the mpki-mode core would hand to each layer at each instruction.
 */
struct Recorder
{
    sampling::FunctionalEngine eng;
    uint64_t index = 0;
    uint64_t lastLine = ~uint64_t(0);
    std::vector<uint64_t> seqs;
    std::vector<bool> open;
    uint64_t branches = 0;
    uint64_t probInstances = 0;

    explicit Recorder(const isa::Program &prog)
        : eng(prog, 0, sampling::FuncDispatch::Switch)
    {
        seqs.assign(size_t(eng.image().maxProbId()) + 1, 0);
        open.assign(seqs.size(), false);
    }

    uint64_t
    readReg(unsigned r) const
    {
        return r ? eng.reg(r) : 0;
    }

    void
    record(uint64_t n, Streams &s)
    {
        using isa::Opcode;
        for (uint64_t k = 0; k < n && !eng.halted(); k++) {
            const uint64_t pc = eng.pc();
            const isa::DecodedOp &op = eng.image().at(pc);

            const uint64_t line = (kTextBase + pc * 8) >> 6;
            if (line != lastLine) {
                lastLine = line;
                s.mem.push_back(kTextBase + pc * 8);
            }
            if (op.isLoad())
                s.mem.push_back(
                    (readReg(op.rs1) + uint64_t(op.imm)) | kDataBit);

            PbsEvent ev{};
            ev.cycle = index;
            ev.probId = op.probId;
            switch (op.op) {
              case Opcode::JZ:
              case Opcode::JNZ: {
                const bool nz = readReg(op.rs1) != 0;
                const bool taken = op.op == Opcode::JNZ ? nz : !nz;
                branches++;
                s.branches.push_back({pc, taken});
                ev.kind = PbsEvent::Branch;
                ev.pc = pc;
                ev.b = uint64_t(op.imm);
                ev.taken = taken;
                s.pbs.push_back(ev);
                break;
              }
              case Opcode::CFD_JNZ:
                branches++;
                break;
              case Opcode::JMP:
                ev.kind = PbsEvent::Branch;
                ev.pc = pc;
                ev.b = uint64_t(op.imm);
                ev.taken = true;
                s.pbs.push_back(ev);
                break;
              case Opcode::CALL:
                ev.kind = PbsEvent::Call;
                ev.pc = pc;
                s.pbs.push_back(ev);
                break;
              case Opcode::RET:
                ev.kind = PbsEvent::Return;
                s.pbs.push_back(ev);
                break;
              case Opcode::PROB_CMP: {
                ev.kind = PbsEvent::CmpFetchExec;
                ev.pc = op.probJmpPc;
                ev.a = readReg(op.rs1);
                ev.b = readReg(op.rs2);
                s.pbs.push_back(ev);
                open[op.probId] = true;
                break;
              }
              case Opcode::PROB_JMP: {
                if (op.isCarrierProbJmp()) {
                    if (open[op.probId]) {
                        ev.kind = PbsEvent::Carrier;
                        ev.a = readReg(op.rd);
                        s.pbs.push_back(ev);
                    }
                    break;
                }
                const bool taken = readReg(op.rs1) != 0;
                branches++;
                probInstances++;
                s.branches.push_back({pc, taken});
                ev.kind = PbsEvent::JmpExec;
                ev.pc = pc;
                ev.taken = taken;
                ev.hasValue2 = op.rd != isa::REG_ZERO;
                ev.a = ev.hasValue2 ? readReg(op.rd) : 0;
                ev.b = uint64_t(op.imm);
                ev.seq = seqs[op.probId]++;
                if (open[op.probId])
                    s.pbs.push_back(ev);
                PbsEvent br{};
                br.kind = PbsEvent::Branch;
                br.pc = pc;
                br.b = uint64_t(op.imm);
                br.taken = taken;
                br.cycle = index;
                s.pbs.push_back(br);
                open[op.probId] = false;
                break;
              }
              default:
                break;
            }
            eng.step(1);
            index++;
        }
    }
};

/**
 * Replay one chunk of PBS events into @p engine. @p tokens holds the
 * open instance token of each probId, as the core keeps it per group.
 */
void
replayPbs(core::PbsEngine &engine, const std::vector<PbsEvent> &events,
          std::vector<uint64_t> &tokens)
{
    for (const PbsEvent &ev : events) {
        uint64_t &token = tokens[ev.probId];
        switch (ev.kind) {
          case PbsEvent::CmpFetchExec:
            token = engine.onProbCmpFetch(ev.pc, ev.cycle).token;
            engine.onProbCmpExec(token, ev.a, ev.b,
                                 ev.cycle + kExecDelay);
            break;
          case PbsEvent::Carrier:
            engine.onCarrierExec(token, ev.a);
            break;
          case PbsEvent::JmpExec: {
            std::optional<uint64_t> v2;
            if (ev.hasValue2)
                v2 = ev.a;
            // The outcome computed from the new values (the recorded
            // run is PBS-off, so it equals the branch direction).
            engine.onProbJmpExec(token, ev.taken, v2, ev.b,
                                 ev.cycle + kExecDelay, ev.seq);
            break;
          }
          case PbsEvent::Branch:
            engine.noteBranch(ev.pc, ev.b, ev.taken);
            break;
          case PbsEvent::Call:
            engine.noteCall(ev.pc);
            break;
          case PbsEvent::Return:
            engine.noteReturn();
            break;
        }
    }
}

int
runNative(const Plan &plan)
{
    util::JsonWriter w;
    w.beginObject();
    for (const ProgramSpec &p : plan.programs) {
        const auto &b = workloads::benchmarkByName(p.workload);
        w.key(programLabel(p)).beginArray();
        for (double v : b.nativeOutput(paramsOf(p)))
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.newline();
    std::fputs(w.str().c_str(), stdout);
    return 0;
}

int
runLayers(const Plan &plan)
{
    util::JsonWriter w;
    w.beginObject();
    auto metric = [&w](const std::string &name, double v) {
        w.key(name).value(v);
    };

    // --- workloads, isa, sampling engine construction -----------------
    std::vector<double> buildMs, decodeMs, initMs;
    double funcSec = 0;
    uint64_t funcInsts = 0;
    for (const ProgramSpec &p : plan.programs) {
        std::vector<double> b, d, e;
        isa::Program prog;
        for (unsigned r = 0; r < kRepeats; r++) {
            auto t0 = Clock::now();
            prog = buildProgram(p);
            b.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            isa::DecodedImage img = isa::DecodedImage::decode(prog);
            d.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            sampling::FunctionalEngine eng(prog);
            e.push_back(secondsSince(t0) * 1e3);
        }
        buildMs.push_back(median(b));
        decodeMs.push_back(median(d));
        initMs.push_back(median(e));

        sampling::FunctionalEngine eng(prog);
        const auto t0 = Clock::now();
        eng.run();
        funcSec += secondsSince(t0);
        funcInsts += eng.stats().instructions;
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / double(v.size());
    };
    metric("workloads.build_ms", mean(buildMs));
    metric("isa.decode_ms", mean(decodeMs));
    metric("sampling.engine_init_ms", mean(initMs));
    metric("sampling.functional_ns_per_inst",
           funcSec * 1e9 / double(std::max<uint64_t>(1, funcInsts)));

    // --- bpred, core (PBS), mem: chunked record + replay --------------
    constexpr uint64_t kChunk = 1 << 20;
    const size_t np = plan.predictors.size();
    std::vector<double> predSec(np, 0.0);
    std::vector<uint64_t> predMiss(np, 0), predBranches(np, 0);
    double pbsSec = 0, memSec = 0;
    uint64_t pbsInstances = 0, pbsSteered = 0, memAccesses = 0;
    uint64_t l1iHits = 0, l1iMisses = 0, l1dHits = 0, l1dMisses = 0;

    w.key("programs").beginObject();
    for (const ProgramSpec &p : plan.programs) {
        const isa::Program prog = buildProgram(p);
        Recorder rec(prog);
        std::vector<std::unique_ptr<bpred::BranchPredictor>> preds;
        for (const auto &name : plan.predictors)
            preds.push_back(bpred::makePredictor(name));
        std::vector<uint64_t> miss(np, 0);
        core::PbsEngine pbs;
        std::vector<uint64_t> tokens(rec.seqs.size(), 0);
        mem::MemoryHierarchy hier;
        uint64_t accesses = 0;
        Streams s;
        while (!rec.eng.halted()) {
            s.clear();
            rec.record(kChunk, s);
            for (size_t i = 0; i < np; i++) {
                bpred::BranchPredictor &bp = *preds[i];
                uint64_t m = 0;
                const auto t0 = Clock::now();
                for (const BranchEvent &br : s.branches) {
                    const bool guess = bp.predict(br.pc);
                    bp.update(br.pc, br.taken);
                    m += guess != br.taken;
                }
                predSec[i] += secondsSince(t0);
                miss[i] += m;
                predBranches[i] += s.branches.size();
            }
            auto t0 = Clock::now();
            replayPbs(pbs, s.pbs, tokens);
            pbsSec += secondsSince(t0);

            t0 = Clock::now();
            for (uint64_t a : s.mem) {
                if (a & kDataBit) {
                    hier.dataAccess(a & ~kDataBit);
                } else {
                    hier.instAccess(a);
                    hier.instPrefetch(a + 64);
                }
            }
            memSec += secondsSince(t0);
            accesses += s.mem.size();
        }
        for (size_t i = 0; i < np; i++)
            predMiss[i] += miss[i];
        memAccesses += accesses;
        pbsInstances += rec.probInstances;
        pbsSteered += pbs.stats().fetchSteered;
        l1iHits += hier.l1i().hits();
        l1iMisses += hier.l1i().misses();
        l1dHits += hier.l1d().hits();
        l1dMisses += hier.l1d().misses();

        w.key(programLabel(p)).beginObject();
        w.key("instructions").value(rec.index);
        w.key("branches").value(rec.branches);
        w.key("prob_instances").value(rec.probInstances);
        w.key("mem_accesses").value(accesses);
        w.key("mispredicts").beginObject();
        for (size_t i = 0; i < np; i++)
            w.key(plan.predictors[i]).value(miss[i]);
        w.endObject();
        w.endObject();
    }
    w.endObject();

    for (size_t i = 0; i < np; i++) {
        const std::string base = "bpred." + plan.predictors[i];
        const double n = double(std::max<uint64_t>(1, predBranches[i]));
        metric(base + ".ns_per_branch", predSec[i] * 1e9 / n);
        metric(base + ".accuracy", 1.0 - double(predMiss[i]) / n);
    }
    const double inst = double(std::max<uint64_t>(1, pbsInstances));
    metric("core.pbs_ns_per_instance", pbsSec * 1e9 / inst);
    metric("core.pbs_steer_ratio", double(pbsSteered) / inst);
    metric("mem.ns_per_access",
           memSec * 1e9 / double(std::max<uint64_t>(1, memAccesses)));
    metric("mem.l1i_miss_ratio",
           double(l1iMisses) /
               double(std::max<uint64_t>(1, l1iHits + l1iMisses)));
    metric("mem.l1d_miss_ratio",
           double(l1dMisses) /
               double(std::max<uint64_t>(1, l1dHits + l1dMisses)));

    // --- cpu: Core::step over each grid point's first kCoreCap insts ---
    double detSec = 0, mpkiSec = 0;
    uint64_t detInsts = 0, mpkiInsts = 0;
    exp::Measurement sampleEntry;
    w.key("points").beginArray();
    for (const PointSpec &pt : plan.points) {
        cpu::CoreConfig cfg;
        cfg.predictor = pt.predictor;
        cfg.pbsEnabled = pt.pbs;
        if (pt.mpki)
            cfg.mode = cpu::SimMode::Functional;
        cpu::Core core(buildProgram(pt.prog), cfg);
        const auto t0 = Clock::now();
        const uint64_t n = core.step(kCoreCap);
        const double sec = secondsSince(t0);
        (pt.mpki ? mpkiSec : detSec) += sec;
        (pt.mpki ? mpkiInsts : detInsts) += n;
        w.beginObject();
        w.key("label").value(programLabel(pt.prog) + "/" + pt.predictor +
                             (pt.pbs ? "/on" : "/off") +
                             (pt.mpki ? "/mpki" : "/detailed"));
        w.key("ns_per_inst").value(sec * 1e9 / double(std::max<uint64_t>(
                                                    1, n)));
        w.endObject();
        sampleEntry.stats = core.stats();
        sampleEntry.pbs = core.pbs().stats();
    }
    w.endArray();
    metric("cpu.detailed_ns_per_inst",
           detSec * 1e9 / double(std::max<uint64_t>(1, detInsts)));
    metric("cpu.mpki_ns_per_inst",
           mpkiSec * 1e9 / double(std::max<uint64_t>(1, mpkiInsts)));

    // --- sampling: capture, intervals, aggregate, checkpoint store -----
    cpu::CoreConfig scfg;
    scfg.predictor = "tage-sc-l";
    scfg.execMode = cpu::ExecMode::Sampled;
    const cpu::CoreConfig detCfg = sampling::detailedMeasureConfig(scfg);
    double captureSec = 0, measureSec = 0, aggSec = 0, saveSec = 0,
           loadSec = 0, poolWall = 0, poolBusy = 0;
    uint64_t sets = 0, sampledSets = 0, intervals = 0, aggRuns = 0,
             storeBytes = 0, detailedInsts = 0, sampledInsts = 0;
    sampling::IntervalSample anySample;
    pool::TaskPool::instance().configure(std::max(1u, plan.jobs));
    for (const ProgramSpec &p : plan.programs) {
        const isa::Program prog = buildProgram(p);
        auto t0 = Clock::now();
        sampling::CheckpointSet set =
            sampling::captureCheckpoints(prog, scfg);
        captureSec += secondsSince(t0);
        sets++;
        const size_t n = set.checkpoints.size();
        if (n < 2)
            continue;  // too short to sample: exact-detailed fallback
        sampledSets++;

        std::vector<sampling::IntervalSample> samples(n);
        t0 = Clock::now();
        for (size_t i = 0; i < n; i++) {
            samples[i] = sampling::measureInterval(
                prog, detCfg, set.checkpoints[i], scfg.sample.warmup,
                scfg.sample.measure);
        }
        measureSec += secondsSince(t0);
        intervals += n;
        for (const auto &smp : samples)
            detailedInsts += smp.detailed;
        sampledInsts += set.totals.instructions;
        anySample = samples[n / 2];

        // The same interval tasks on the pool: busy share.
        std::vector<double> taskSec(n, 0.0);
        t0 = Clock::now();
        pool::TaskPool::instance().parallelFor(
            n,
            [&](size_t i) {
                const auto s0 = Clock::now();
                sampling::measureInterval(prog, detCfg,
                                          set.checkpoints[i],
                                          scfg.sample.warmup,
                                          scfg.sample.measure);
                taskSec[i] = secondsSince(s0);
            },
            "sample");
        poolWall += secondsSince(t0) * double(std::max(1u, plan.jobs));
        for (double x : taskSec)
            poolBusy += x;

        for (unsigned r = 0; r < kRepeats; r++) {
            sampling::SampledRun run;
            t0 = Clock::now();
            sampling::aggregateSamples(set.totals, set.finalState, samples,
                                       run);
            aggSec += secondsSince(t0);
            aggRuns++;
        }

        sampling::StoreKey key;
        key.workload = p.workload;
        key.scale = p.scale;
        key.seed = p.seed;
        key.interval = scfg.sample.interval;
        key.warmup = scfg.sample.warmup;
        key.salt = "layer-probe";
        const std::string dir =
            plan.tmp + "/ckpt-" + sampling::storeSetHash(key);
        t0 = Clock::now();
        const sampling::SavedSet saved =
            sampling::saveCheckpointSet(dir, key, set);
        saveSec += secondsSince(t0);
        storeBytes += saved.bytes;
        t0 = Clock::now();
        const sampling::CheckpointSet back =
            sampling::loadCheckpointSet(dir, key);
        loadSec += secondsSince(t0);
        if (back.checkpoints.size() != n)
            throw std::runtime_error("checkpoint set reloaded short");
        std::filesystem::remove_all(dir);
    }
    const double nSampled = double(std::max<uint64_t>(1, sampledSets));
    metric("sampling.capture_ms",
           captureSec * 1e3 / double(std::max<uint64_t>(1, sets)));
    metric("sampling.measure_ms_per_interval",
           measureSec * 1e3 /
               double(std::max<uint64_t>(1, intervals)));
    metric("sampling.aggregate_us",
           aggSec * 1e6 / double(std::max<uint64_t>(1, aggRuns)));
    metric("sampling.detailed_share",
           double(detailedInsts) /
               double(std::max<uint64_t>(1, sampledInsts)));
    metric("sampling.store_save_ms", saveSec * 1e3 / nSampled);
    metric("sampling.store_load_ms", loadSec * 1e3 / nSampled);
    metric("sampling.store_bytes", double(storeBytes) / nSampled);
    metric("util.pool_busy_share",
           poolWall > 0 ? poolBusy / poolWall : 0.0);
    w.key("sampled_intervals").value(intervals);

    // --- exp: result-cache entries and partials -------------------------
    const exp::ResultCache cache(plan.tmp + "/cache");
    constexpr unsigned kOps = 200;
    exp::ExpPoint ept;
    ept.workload = plan.programs.empty() ? "pi"
                                         : plan.programs.front().workload;
    ept.scale = 1;
    std::vector<std::string> keys, pkeys;
    for (unsigned i = 0; i < kOps; i++) {
        ept.seed = i + 1;
        keys.push_back(exp::cacheKey(ept));
        pkeys.push_back(exp::partialKey(ept, i));
    }
    auto timeOps = [&](auto &&op) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kOps; i++) {
            ept.seed = i + 1;
            if (!op(i))
                throw std::runtime_error("result-cache operation failed");
        }
        return secondsSince(t0) * 1e6 / kOps;
    };
    metric("exp.entry_store_us", timeOps([&](unsigned i) {
        return cache.store(keys[i], ept, sampleEntry);
    }));
    metric("exp.entry_load_us", timeOps([&](unsigned i) {
        exp::Measurement m;
        return cache.load(keys[i], exp::PointKind::Sim, m);
    }));
    metric("exp.partial_store_us", timeOps([&](unsigned i) {
        return cache.storePartial(pkeys[i], ept, i, anySample);
    }));
    metric("exp.partial_load_us", timeOps([&](unsigned i) {
        sampling::IntervalSample s;
        return cache.loadPartial(pkeys[i], s);
    }));
    std::filesystem::remove_all(plan.tmp + "/cache");

    w.endObject();
    w.newline();
    std::fputs(w.str().c_str(), stdout);
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: layer_probe native|layers <plan>\n");
        return 2;
    }
    try {
        const Plan plan = readPlan(argv[2]);
        const std::string cmd = argv[1];
        if (cmd == "native")
            return runNative(plan);
        if (cmd == "layers")
            return runLayers(plan);
        std::fprintf(stderr, "layer_probe: unknown command %s\n", argv[1]);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "layer_probe: %s\n", e.what());
        return 1;
    }
}
