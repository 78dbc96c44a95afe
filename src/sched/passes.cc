#include "sched/passes.hh"

#include <algorithm>
#include <cinttypes>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Compute-task ids some send is anchored on (any card's comm queue). */
std::unordered_set<uint64_t>
anchoredComputeIds(const Program& prog)
{
    std::unordered_set<uint64_t> anchored;
    for (const auto& card : prog.cards)
        for (const auto& ct : card.comm)
            if (ct.kind == CommTask::Kind::Send && ct.afterCompute)
                anchored.insert(ct.afterCompute);
    return anchored;
}

/** Message ids some compute task waits on. */
std::unordered_set<uint64_t>
waitedMsgIds(const Program& prog)
{
    std::unordered_set<uint64_t> waited;
    for (const auto& card : prog.cards)
        waited.insert(card.waits.begin(), card.waits.end());
    return waited;
}

/**
 * Canonical compute-queue order (Safe): sort maximal runs of adjacent
 * dependency-free tasks (no waitMsgs, no send anchored on them) by
 * (label, id).  Within such a run the tasks execute back-to-back with
 * no external observer of intermediate completions, so any permutation
 * is tick-identical when transfers overlap compute.
 */
uint64_t
canonicalComputeOrder(Program& prog)
{
    auto anchored = anchoredComputeIds(prog);
    uint64_t moved = 0;
    for (auto& card : prog.cards) {
        auto& q = card.compute;
        auto movable = [&](const ComputeTask& t) {
            return t.waitCount == 0 && !anchored.count(t.id);
        };
        size_t i = 0;
        while (i < q.size()) {
            if (!movable(q[i])) {
                ++i;
                continue;
            }
            size_t j = i + 1;
            while (j < q.size() && movable(q[j]))
                ++j;
            if (j - i > 1) {
                std::vector<uint64_t> before(j - i);
                for (size_t k = i; k < j; ++k)
                    before[k - i] = q[k].id;
                std::stable_sort(q.begin() + i, q.begin() + j,
                                 [](const ComputeTask& a,
                                    const ComputeTask& b) {
                                     if (a.label != b.label)
                                         return a.label < b.label;
                                     return a.id < b.id;
                                 });
                for (size_t k = i; k < j; ++k)
                    if (q[k].id != before[k - i])
                        ++moved;
            }
            i = j;
        }
    }
    return moved;
}

/**
 * Dead-transfer elimination (Aggressive): a message whose send carries
 * zero bytes and that no compute task waits on only occupies comm
 * queues and setup latency; drop its send and every matching recv.
 */
uint64_t
eliminateDeadTransfers(Program& prog)
{
    auto waited = waitedMsgIds(prog);
    std::unordered_set<uint64_t> dead;
    for (const auto& card : prog.cards)
        for (const auto& ct : card.comm)
            if (ct.kind == CommTask::Kind::Send && ct.bytes == 0 &&
                !waited.count(ct.msg))
                dead.insert(ct.msg);
    if (dead.empty())
        return 0;
    uint64_t removed = 0;
    for (auto& card : prog.cards) {
        auto it = std::remove_if(card.comm.begin(), card.comm.end(),
                                 [&](const CommTask& ct) {
                                     return dead.count(ct.msg) != 0;
                                 });
        removed += static_cast<uint64_t>(card.comm.end() - it);
        card.comm.erase(it, card.comm.end());
    }
    return removed;
}

/** Replace msg `from` with `to` in every compute task's wait list. */
void
rewriteWaits(Program& prog, uint64_t from, uint64_t to)
{
    for (auto& card : prog.cards) {
        std::vector<uint64_t> waits;
        waits.reserve(card.waits.size());
        for (auto& t : card.compute) {
            auto old = card.waitMsgs(t);
            bool has_to = std::find(old.begin(), old.end(), to) != old.end();
            bool kept_to = false;
            t.waitBegin = static_cast<uint32_t>(waits.size());
            for (uint64_t m : old) {
                if (m == from)
                    m = to;
                if (has_to && m == to) {
                    // Both were present: keep the first `to` only.
                    if (kept_to)
                        continue;
                    kept_to = true;
                }
                waits.push_back(m);
            }
            t.waitCount = static_cast<uint32_t>(waits.size()) - t.waitBegin;
        }
        card.waits = std::move(waits);
    }
}

/**
 * Broadcast coalescing (Aggressive): two adjacent broadcasts from the
 * same card with the same compute anchor — and adjacent matching
 * recvs on every receiver — merge into one transfer with the summed
 * payload, saving one per-hop setup + DMA configuration round.
 */
uint64_t
coalesceBroadcasts(Program& prog)
{
    uint64_t merges = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t c = 0; c < prog.cards.size() && !changed; ++c) {
            auto& comm = prog.cards[c].comm;
            for (size_t i = 0; i + 1 < comm.size(); ++i) {
                CommTask& a = comm[i];
                CommTask& b = comm[i + 1];
                if (a.kind != CommTask::Kind::Send ||
                    b.kind != CommTask::Kind::Send)
                    continue;
                if (a.peer != kBroadcast || b.peer != kBroadcast ||
                    a.afterCompute != b.afterCompute)
                    continue;
                // Every receiver must hold recv(a) immediately
                // followed by recv(b), so the merge is FIFO-safe.
                bool mergeable = true;
                for (size_t d = 0;
                     d < prog.cards.size() && mergeable; ++d) {
                    if (d == c)
                        continue;
                    const auto& rq = prog.cards[d].comm;
                    size_t ra = rq.size();
                    for (size_t k = 0; k < rq.size(); ++k)
                        if (rq[k].kind == CommTask::Kind::Recv &&
                            rq[k].msg == a.msg) {
                            ra = k;
                            break;
                        }
                    mergeable = ra + 1 < rq.size() &&
                                rq[ra + 1].kind ==
                                    CommTask::Kind::Recv &&
                                rq[ra + 1].msg == b.msg;
                }
                if (!mergeable)
                    continue;
                uint64_t dead_msg = b.msg;
                a.bytes += b.bytes;
                comm.erase(comm.begin() + i + 1);
                for (size_t d = 0; d < prog.cards.size(); ++d) {
                    if (d == c)
                        continue;
                    auto& rq = prog.cards[d].comm;
                    for (size_t k = 0; k < rq.size(); ++k)
                        if (rq[k].kind == CommTask::Kind::Recv &&
                            rq[k].msg == dead_msg) {
                            rq[k - 1].bytes += rq[k].bytes;
                            rq.erase(rq.begin() + k);
                            break;
                        }
                }
                rewriteWaits(prog, dead_msg, comm[i].msg);
                ++merges;
                changed = true;
                break;
            }
        }
    }
    return merges;
}

/**
 * Stall hoisting (Aggressive): stable-partition each compute queue so
 * dependency-free tasks run before waiting ones.  Relative order
 * within each class is preserved; waiters gain only always-runnable
 * predecessors, so no wait cycle can appear that the original program
 * did not already have.
 */
uint64_t
hoistIndependentCompute(Program& prog)
{
    uint64_t moved = 0;
    for (auto& card : prog.cards) {
        auto& q = card.compute;
        std::vector<uint64_t> before(q.size());
        for (size_t k = 0; k < q.size(); ++k)
            before[k] = q[k].id;
        std::stable_partition(q.begin(), q.end(),
                              [](const ComputeTask& t) {
                                  return t.waitCount == 0;
                              });
        for (size_t k = 0; k < q.size(); ++k)
            if (q[k].id != before[k])
                ++moved;
    }
    return moved;
}

void
runPass(Program& prog, const char* name, uint64_t (*pass)(Program&),
        OptReport* report)
{
    PassDelta delta;
    delta.pass = name;
    delta.before = countProgram(prog);
    delta.changes = pass(prog);
    delta.after = countProgram(prog);
    if (report)
        report->passes.push_back(std::move(delta));
}

std::string
countsLine(const ProgramCounts& c)
{
    return strf("%" PRIu64 " compute, %" PRIu64 " send(s), %" PRIu64
                " recv(s), %" PRIu64 " msg(s), %.3f MiB",
                c.computeTasks, c.sends, c.recvs, c.messages,
                static_cast<double>(c.bytes) / (1 << 20));
}

} // namespace

const char*
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::None:
        return "none";
      case OptLevel::Safe:
        return "safe";
      case OptLevel::Aggressive:
        return "aggressive";
    }
    return "?";
}

ProgramCounts
countProgram(const Program& prog)
{
    ProgramCounts c;
    std::unordered_set<uint64_t> msgs;
    for (const auto& card : prog.cards) {
        c.computeTasks += card.compute.size();
        c.maxComputeDepth =
            std::max<uint64_t>(c.maxComputeDepth, card.compute.size());
        c.maxCommDepth =
            std::max<uint64_t>(c.maxCommDepth, card.comm.size());
        for (const auto& ct : card.comm) {
            if (ct.kind == CommTask::Kind::Send) {
                ++c.sends;
                c.bytes += ct.bytes;
                msgs.insert(ct.msg);
            } else {
                ++c.recvs;
                msgs.insert(ct.msg);
            }
        }
    }
    c.messages = msgs.size();
    return c;
}

uint64_t
OptReport::totalChanges() const
{
    uint64_t sum = 0;
    for (const auto& p : passes)
        sum += p.changes;
    return sum;
}

std::string
OptReport::describe() const
{
    std::string out =
        strf("optimize [%s]: %s\n            -> %s\n",
             optLevelName(level), countsLine(before).c_str(),
             countsLine(after).c_str());
    for (const auto& p : passes)
        out += strf("  pass %-18s %5" PRIu64 " change(s), %s\n",
                    p.pass.c_str(), p.changes,
                    countsLine(p.after).c_str());
    return out;
}

Program
optimizeProgram(Program prog, OptLevel level, bool overlaps_compute,
                OptReport* report)
{
    if (report) {
        *report = OptReport{};
        report->level = level;
        report->before = countProgram(prog);
    }
    if (level >= OptLevel::Aggressive) {
        runPass(prog, "dead-transfer-elim", eliminateDeadTransfers,
                report);
        runPass(prog, "broadcast-coalesce", coalesceBroadcasts, report);
        runPass(prog, "stall-hoist", hoistIndependentCompute, report);
    }
    // Tick-neutral only when transfers overlap compute: on a
    // host-mediated network a compute boundary is a scheduling point
    // for pending transfers, so even no-wait task permutations can
    // shift them.
    if (level >= OptLevel::Safe && overlaps_compute)
        runPass(prog, "canonical-order", canonicalComputeOrder, report);
    if (report)
        report->after = countProgram(prog);
    return prog;
}

std::string
describeProgram(const Program& prog, const OptReport* report)
{
    std::string out;
    ProgramCounts total = countProgram(prog);
    out += strf("program: %zu card(s), %s\n", prog.cardCount(),
                countsLine(total).c_str());
    for (size_t c = 0; c < prog.cards.size(); ++c) {
        const auto& card = prog.cards[c];
        uint64_t sends = 0, recvs = 0, bytes = 0, waits = 0;
        for (const auto& ct : card.comm) {
            if (ct.kind == CommTask::Kind::Send) {
                ++sends;
                bytes += ct.bytes;
            } else {
                ++recvs;
            }
        }
        waits += card.waits.size();
        out += strf("  card %2zu: compute %4zu (%4" PRIu64
                    " wait(s)), send %4" PRIu64 ", recv %4" PRIu64
                    ", out %8.3f MiB\n",
                    c, card.compute.size(), waits, sends, recvs,
                    static_cast<double>(bytes) / (1 << 20));
    }
    if (report)
        out += report->describe();
    return out;
}

} // namespace hydra
