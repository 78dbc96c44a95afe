#include "sync/executor.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <set>

#include "common/logging.hh"

namespace hydra {

Tick
RunStats::maxComputeBusy() const
{
    Tick m = 0;
    for (Tick t : computeBusy)
        m = std::max(m, t);
    return m;
}

Tick
RunStats::commOverhead() const
{
    Tick floor = maxComputeBusy();
    return makespan > floor ? makespan - floor : 0;
}

uint64_t
RunStats::fingerprint() const
{
    // FNV-1a over every execution-visible field, so two runs hash
    // equal iff they are bit-identical (execution-equivalence tests).
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(makespan);
    mix(computeBusy.size());
    for (Tick t : computeBusy)
        mix(t);
    mix(commBusy.size());
    for (Tick t : commBusy)
        mix(t);
    mix(netBytes);
    mix(netMessages);
    mix(totalCost.cycles);
    mix(totalCost.hbmBytes);
    for (uint64_t v : totalCost.cuOps)
        mix(v);
    mix(totalCost.limbs);
    for (const auto& [label, ticks] : labelComputeTicks) {
        mix(label);
        mix(ticks);
    }
    mix(retries);
    mix(droppedTransfers);
    mix(corruptedTransfers);
    mix(timedOutTransfers);
    mix(retryBackoffTicks);
    return h;
}

void
RunStats::append(const RunStats& next, Tick step_gap)
{
    makespan += next.makespan + step_gap;
    if (computeBusy.size() < next.computeBusy.size())
        computeBusy.resize(next.computeBusy.size(), 0);
    if (commBusy.size() < next.commBusy.size())
        commBusy.resize(next.commBusy.size(), 0);
    for (size_t i = 0; i < next.computeBusy.size(); ++i)
        computeBusy[i] += next.computeBusy[i];
    for (size_t i = 0; i < next.commBusy.size(); ++i)
        commBusy[i] += next.commBusy[i];
    netBytes += next.netBytes;
    netMessages += next.netMessages;
    totalCost += next.totalCost;
    retries += next.retries;
    droppedTransfers += next.droppedTransfers;
    corruptedTransfers += next.corruptedTransfers;
    timedOutTransfers += next.timedOutTransfers;
    retryBackoffTicks += next.retryBackoffTicks;
    for (const auto& [label, t] : next.labelComputeTicks)
        labelComputeTicks[label] += t;
}

namespace {

/** Deterministic duration scaling for stragglers / link degradation. */
Tick
scaleTick(Tick t, double factor)
{
    return static_cast<Tick>(static_cast<double>(t) * factor);
}

constexpr uint32_t kNoIndex = std::numeric_limits<uint32_t>::max();
constexpr size_t kNoCard = static_cast<size_t>(-1);

/** One pending engine event, ordered by (when, seq). */
struct Event
{
    enum class Kind : uint8_t
    {
        /** tryCompute + tryComm on `card`. */
        Sweep,
        /** The same on every dirty card in index order. */
        SweepAll,
        /** The same on each receiver of comm task `index` (sent by
         *  `card`), then on the sender. */
        SweepLanded,
        /** The same on each receiver of comm task `index` only. */
        SweepReceivers,
        /** `card`'s head compute task finishes. */
        ComputeDone,
        /** The recv at comm task `index` of `card` has its DMA set up. */
        RecvReady,
        /** The transfer `card` has on the wire ends. */
        TransferDone,
        /** `card` fails permanently. */
        CardFail,
    };

    Tick when;
    uint64_t seq;
    Kind kind;
    uint32_t card;
    uint32_t index;
};

/** Heap order: the earliest (when, seq) on top. */
bool
later(const Event& a, const Event& b)
{
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
}

/** A dense message x card flag matrix, one bit per pair. */
class CardBits
{
  public:
    CardBits() = default;
    CardBits(size_t msgs, size_t cards)
        : cards_(cards), words_((cards + 63) / 64), bits_(msgs * words_, 0)
    {
    }

    bool
    test(uint32_t m, size_t c) const
    {
        return (bits_[m * words_ + c / 64] >> (c % 64)) & 1;
    }

    void
    set(uint32_t m, size_t c)
    {
        bits_[m * words_ + c / 64] |= uint64_t{1} << (c % 64);
    }

    void
    clearRow(uint32_t m)
    {
        std::fill_n(bits_.begin() + m * words_, words_, 0);
    }

    /** Whether row `m` flags every card other than `skip` (one word
     *  compare per 64 cards). */
    bool
    allExcept(uint32_t m, size_t skip) const
    {
        for (size_t w = 0; w < words_; ++w) {
            size_t left = cards_ - w * 64;
            uint64_t all =
                left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
            uint64_t v = bits_[m * words_ + w];
            if (skip / 64 == w)
                v |= uint64_t{1} << (skip % 64);
            if (v != all)
                return false;
        }
        return true;
    }

  private:
    size_t cards_ = 0;
    size_t words_ = 0;
    std::vector<uint64_t> bits_;
};

/**
 * Contiguous renumbering of a set of 64-bit ids, in increasing id
 * order.  Compiled programs number their ids densely from 1, so a
 * direct table over [min, max] serves them; a sparse id set (a
 * hand-built program) falls back to sort + binary search.  Both number
 * the same way.  The table is worth its second path: with sort +
 * binary search alone, sim_matrix ran 41.3 inferences/s against 59.3
 * with the table (median of 6 interleaved 16 s pairs, 0 of 6 won,
 * 4-core Xeon, HYDRA_THREADS=4): every run renumbers one reference
 * per comm task and wait, 64 per broadcast on a 64-card machine.
 */
class DenseIds
{
  public:
    DenseIds() = default;
    explicit DenseIds(std::vector<uint64_t> ids)
    {
        if (ids.empty())
            return;
        auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
        // Table only while it stays O(ids) in size.
        if (*hi - *lo < 4 * ids.size() + 64) {
            base_ = *lo;
            table_.assign(*hi - *lo + 1, kNoIndex);
            for (uint64_t id : ids)
                table_[id - base_] = 0;
            for (size_t k = 0; k < table_.size(); ++k) {
                if (table_[k] == kNoIndex)
                    continue;
                table_[k] = static_cast<uint32_t>(sorted_.size());
                sorted_.push_back(base_ + k);
            }
            return;
        }
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        sorted_ = std::move(ids);
    }

    size_t size() const { return sorted_.size(); }

    /** The id with dense index `i`. */
    uint64_t id(uint32_t i) const { return sorted_[i]; }

    /** Dense index of `id`, or kNoIndex when the set lacks it. */
    uint32_t
    operator()(uint64_t id) const
    {
        if (!table_.empty())
            return id >= base_ && id - base_ < table_.size()
                       ? table_[id - base_]
                       : kNoIndex;
        auto it = std::lower_bound(sorted_.begin(), sorted_.end(), id);
        if (it == sorted_.end() || *it != id)
            return kNoIndex;
        return static_cast<uint32_t>(it - sorted_.begin());
    }

  private:
    uint64_t base_ = 0;
    std::vector<uint32_t> table_;
    std::vector<uint64_t> sorted_;
};

/**
 * All mutable execution state of one run, over dense tables built in
 * the constructor: tasks carry global indices (card base + queue
 * position), message and compute ids are renumbered contiguously, and
 * per-message state lives in flat vectors instead of maps and sets.
 */
struct Engine
{
    Engine(const Program& prog, const NetworkModel& net,
           const FaultPlan& plan, const RetryPolicy& retry, Tick origin)
        : prog(prog), net(net), plan(plan), retry(retry),
          n(prog.cardCount()), cards(n), now(origin),
          overlap(net.overlapsCompute()), faultsActive(!plan.empty()),
          finishTick(origin)
    {
        computeBase.assign(n + 1, 0);
        commBase.assign(n + 1, 0);
        std::vector<uint64_t> msg_refs, compute_ids, label_refs;
        for (size_t c = 0; c < n; ++c) {
            const CardProgram& cp = prog.cards[c];
            computeBase[c + 1] =
                computeBase[c] + static_cast<uint32_t>(cp.compute.size());
            commBase[c + 1] =
                commBase[c] + static_cast<uint32_t>(cp.comm.size());
            for (const ComputeTask& t : cp.compute) {
                compute_ids.push_back(t.id);
                auto waits = cp.waitMsgs(t);
                msg_refs.insert(msg_refs.end(), waits.begin(), waits.end());
                label_refs.push_back(t.label);
            }
            for (const CommTask& t : cp.comm)
                msg_refs.push_back(t.msg);
        }
        msgIds = DenseIds(std::move(msg_refs));
        labelIds = DenseIds(std::move(label_refs));
        const DenseIds ids(std::move(compute_ids));
        const size_t msgs = msgIds.size();

        // The extra last slot stands for every afterCompute id that no
        // compute task carries: it is never set, so such a send waits
        // forever (and the deadlock report calls the id dangling).
        doneCompute.assign(ids.size() + 1, 0);
        computeId.reserve(computeBase[n]);
        computeLabel.reserve(computeBase[n]);
        waitBegin.reserve(computeBase[n] + 1);
        // Per dense compute id: the one card that carries it, kNoIndex
        // before any does, n once several do.
        std::vector<uint32_t> carrier(ids.size() + 1, kNoIndex);
        for (size_t c = 0; c < n; ++c) {
            for (const ComputeTask& t : prog.cards[c].compute) {
                const uint32_t k = ids(t.id);
                carrier[k] = carrier[k] == kNoIndex || carrier[k] == c
                                 ? static_cast<uint32_t>(c)
                                 : static_cast<uint32_t>(n);
                computeId.push_back(k);
                computeLabel.push_back(labelIds(t.label));
                waitBegin.push_back(static_cast<uint32_t>(waitMsg.size()));
                for (uint64_t m : prog.cards[c].waitMsgs(t))
                    waitMsg.push_back(msgIds(m));
            }
        }
        waitBegin.push_back(static_cast<uint32_t>(waitMsg.size()));

        senderOf.assign(msgs, kNoCard);
        commMsg.reserve(commBase[n]);
        commAfter.reserve(commBase[n]);
        for (size_t c = 0; c < n; ++c) {
            for (const CommTask& t : prog.cards[c].comm) {
                uint32_t m = msgIds(t.msg);
                commMsg.push_back(m);
                uint32_t after = kNoIndex;
                if (t.kind == CommTask::Kind::Send) {
                    senderOf[m] = c;
                    if (t.afterCompute != 0) {
                        after = ids(t.afterCompute);
                        if (after == kNoIndex)
                            after = static_cast<uint32_t>(ids.size());
                        else if (carrier[after] != c)
                            crossSends.emplace_back(after, c);
                    }
                }
                commAfter.push_back(after);
            }
        }

        received = CardBits(msgs, n);
        ready = CardBits(msgs, n);
        dirty.assign((n + 63) / 64, 0);
        blocked = dirty;
        for (size_t c = 0; c < n; ++c)
            markDirty(c); // the run's first SweepAll visits every card
        attempts.assign(msgs, 0);
        labelTicks.assign(labelIds.size(), 0);
        labelSeen.assign(labelIds.size(), 0);
    }

    const Program& prog;
    const NetworkModel& net;
    const FaultPlan& plan;
    const RetryPolicy& retry;
    const size_t n;

    /** First global compute / comm task index of each card, plus the
     *  total at [n]. */
    std::vector<uint32_t> computeBase, commBase;
    /** Per compute task: dense id and dense label; its waits are
     *  waitMsg[waitBegin[g], waitBegin[g + 1]). */
    std::vector<uint32_t> computeId, computeLabel, waitBegin, waitMsg;
    /** Per comm task: dense message; for sends the dense afterCompute
     *  id (kNoIndex = no dependency). */
    std::vector<uint32_t> commMsg, commAfter;
    /** Dense message numbering (every id a comm task or a wait
     *  names), and per message the last sending card in card order
     *  (kNoCard = none). */
    DenseIds msgIds;
    std::vector<size_t> senderOf;
    /** Dense label numbering (labelComputeTicks keys). */
    DenseIds labelIds;
    /** (dense compute id, sending card) for each send whose payload
     *  compute another card carries, in card order; empty for every
     *  compiled program. */
    std::vector<std::pair<uint32_t, uint32_t>> crossSends;

    enum class Outcome : uint8_t { Ok, Drop, Timeout, Corrupt };

    /** One transfer attempt on the wire. */
    struct Flight
    {
        uint32_t comm = 0;
        uint32_t attempt = 0;
        Outcome out = Outcome::Ok;
        Tick start = 0;
        Tick consumed = 0;
    };

    struct CardState
    {
        size_t computeIdx = 0;
        size_t commIdx = 0;
        bool computeBusy = false;
        bool commBusy = false;
        bool recvConfigured = false;
        Tick computeBusyTicks = 0;
        Tick commBusyTicks = 0;
        /** The in-flight compute task's start and duration. */
        Tick computeStart = 0;
        Tick computeDur = 0;
        /** The transfer this card sends while commBusy (a sender has
         *  at most one on the wire). */
        Flight flight;
    };

    std::vector<CardState> cards;
    CardBits received; // msg x card: data landed
    CardBits ready;    // msg x card: ready posted, transfer pending
    std::vector<uint32_t> attempts;   // per msg: failed attempts
    std::vector<uint8_t> doneCompute; // per dense compute id
    std::vector<Tick> labelTicks;    // per dense label
    std::vector<uint8_t> labelSeen;  // per dense label: ran a task
    /** Cards whose compute pipeline is busy right now. */
    size_t computingCards = 0;
    /** One bit per card: cards whose sweep may act, the only ones a
     *  SweepAll visits.  sweep(c) clears bit c. */
    std::vector<uint64_t> dirty;
    /** One bit per card: senders whose last tryComm stopped at a check
     *  another card's compute completion or posted ready can clear
     *  (SAC, handshake, host-mediated busy pipelines). */
    std::vector<uint64_t> blocked;

    std::vector<Event> events;
    uint64_t seq = 0;
    Tick now;

    RunStats stats;
    RunError err;
    bool overlap;
    bool faultsActive;
    bool halted = false;
    bool record = false;
    /** Time of the last completed piece of work (drives makespan, so
     *  a post-completion card-kill event cannot inflate it). */
    Tick finishTick;

    void
    schedule(Tick when, Event::Kind kind, size_t card, uint32_t index = 0)
    {
        events.push_back(
            Event{when, seq++, kind, static_cast<uint32_t>(card), index});
        std::push_heap(events.begin(), events.end(), later);
    }

    /** Run events in (when, seq) order until the heap drains or the
     *  run halts (every later event would be a no-op). */
    void
    run()
    {
        while (!events.empty() && !halted) {
            std::pop_heap(events.begin(), events.end(), later);
            Event ev = events.back();
            events.pop_back();
            now = ev.when;
            switch (ev.kind) {
            case Event::Kind::Sweep:
                sweep(ev.card);
                break;
            case Event::Kind::SweepAll:
                // A sweep only makes cards busier, so no sweep in this
                // loop dirties a card: the dirty cards come out in
                // index order, and a clean card's sweep is a no-op.
                for (size_t w = 0; w < dirty.size(); ++w)
                    while (dirty[w])
                        sweep(w * 64 + std::countr_zero(dirty[w]));
                break;
            case Event::Kind::SweepLanded:
                forEachReceiver(ev.card, ev.index,
                                [this](size_t r) { sweep(r); });
                sweep(ev.card);
                break;
            case Event::Kind::SweepReceivers:
                forEachReceiver(ev.card, ev.index,
                                [this](size_t r) { sweep(r); });
                break;
            case Event::Kind::ComputeDone:
                computeDone(ev.card);
                break;
            case Event::Kind::RecvReady:
                recvReady(ev.card, ev.index);
                break;
            case Event::Kind::TransferDone:
                transferDone(ev.card);
                break;
            case Event::Kind::CardFail:
                cardFail(ev.card);
                break;
            }
        }
    }

    void
    emit(size_t card, Tick start, Tick end, TaskEvent::Kind kind,
         uint32_t label)
    {
        if (record)
            stats.timeline.push_back(TaskEvent{card, start, end, kind,
                                               label});
    }

    bool
    allDone() const
    {
        for (size_t c = 0; c < n; ++c)
            if (cards[c].computeIdx != prog.cards[c].compute.size() ||
                cards[c].commIdx != prog.cards[c].comm.size())
                return false;
        return true;
    }

    void
    halt(RunError e)
    {
        halted = true;
        finishTick = now;
        err = std::move(e);
    }

    const CommTask&
    commTask(size_t c, uint32_t g) const
    {
        return prog.cards[c].comm[g - commBase[c]];
    }

    /** Visit the receivers of send `g` on card `c` in card order. */
    template <class F>
    void
    forEachReceiver(size_t c, uint32_t g, F&& f) const
    {
        const CommTask& t = commTask(c, g);
        if (t.peer != kBroadcast) {
            f(t.peer);
            return;
        }
        for (size_t r = 0; r < n; ++r)
            if (r != c)
                f(r);
    }

    void
    sweep(size_t c)
    {
        const uint64_t bit = uint64_t{1} << (c % 64);
        dirty[c / 64] &= ~bit;
        blocked[c / 64] &= ~bit;
        tryCompute(c);
        tryComm(c);
    }

    /** Card `c`'s sweep inputs changed: the next SweepAll visits it. */
    void
    markDirty(size_t c)
    {
        dirty[c / 64] |= uint64_t{1} << (c % 64);
    }

    /** A compute finished or a ready was posted: every blocked sender
     *  may proceed. */
    void
    wakeBlocked()
    {
        for (size_t w = 0; w < dirty.size(); ++w) {
            dirty[w] |= blocked[w];
            blocked[w] = 0;
        }
    }

    void
    scheduleCardFailures()
    {
        // Kill ticks are absolute; with a time origin a kill dated
        // before the run starts fires immediately.
        for (const auto& [card, tick] : plan.cardFailAt)
            if (card < n)
                schedule(std::max(tick, now), Event::Kind::CardFail, card);
    }

    void
    cardFail(size_t card)
    {
        if (allDone())
            return; // program already drained; nothing to kill
        RunError e;
        e.kind = RunError::Kind::CardFailed;
        e.card = card;
        e.tick = now;
        e.message = strf("card %zu failed permanently at %.6f s", card,
                         ticksToSeconds(now));
        halt(std::move(e));
    }

    void
    tryCompute(size_t c)
    {
        auto& st = cards[c];
        const auto& queue = prog.cards[c].compute;
        if (st.computeBusy || st.computeIdx >= queue.size())
            return;
        if (!overlap && st.commBusy)
            return; // FAB: data movement blocks the pipeline
        uint32_t g = computeBase[c] + static_cast<uint32_t>(st.computeIdx);
        for (uint32_t w = waitBegin[g]; w < waitBegin[g + 1]; ++w)
            if (!received.test(waitMsg[w], c))
                return; // CT_d waiting for its recv signal

        Tick dur = queue[st.computeIdx].duration;
        if (faultsActive) {
            double f = plan.stragglerFactor(c);
            if (f != 1.0)
                dur = scaleTick(dur, f);
        }
        st.computeBusy = true;
        ++computingCards;
        st.computeStart = now;
        st.computeDur = dur;
        schedule(now + dur, Event::Kind::ComputeDone, c);
    }

    void
    computeDone(size_t c)
    {
        auto& st = cards[c];
        const ComputeTask& task = prog.cards[c].compute[st.computeIdx];
        st.computeBusy = false;
        --computingCards;
        st.computeBusyTicks += st.computeDur;
        emit(c, st.computeStart, now, TaskEvent::Kind::Compute, task.label);
        stats.totalCost += prog.costs[task.costId];
        uint32_t g = computeBase[c] + static_cast<uint32_t>(st.computeIdx);
        doneCompute[computeId[g]] = 1;
        labelTicks[computeLabel[g]] += st.computeDur;
        labelSeen[computeLabel[g]] = 1;
        ++st.computeIdx;
        finishTick = now;
        markDirty(c);
        wakeBlocked();
        // Host-mediated mode: remote senders may be blocked on this
        // card's compute pipeline; SweepAll re-evaluates the dirty
        // cards, the blocked senders among them.
        schedule(now, overlap ? Event::Kind::Sweep : Event::Kind::SweepAll,
                 c);
        // A send on another card whose payload this compute is.
        for (auto [k, s] : crossSends)
            if (k == computeId[g] && s != c)
                schedule(now, Event::Kind::Sweep, s);
    }

    /** Handshake: has every receiver of send `g` on card `c` posted
     *  ready? */
    bool
    receiversReady(size_t c, uint32_t g) const
    {
        const CommTask& t = commTask(c, g);
        if (t.peer != kBroadcast)
            return t.peer < n && ready.test(commMsg[g], t.peer);
        return ready.allExcept(commMsg[g], c);
    }

    void
    tryComm(size_t c)
    {
        auto& st = cards[c];
        const auto& queue = prog.cards[c].comm;
        if (st.commBusy || st.commIdx >= queue.size())
            return;
        uint32_t g = commBase[c] + static_cast<uint32_t>(st.commIdx);
        const CommTask& task = queue[st.commIdx];

        if (task.kind == CommTask::Kind::Recv) {
            if (st.recvConfigured)
                return; // ready posted; waiting for the sender
            // Configure the DMA, then post ready to the sender.
            st.commBusy = true;
            schedule(now + net.setupLatency(), Event::Kind::RecvReady, c, g);
            return;
        }

        // Send: needs its payload computed (SAC) and every receiver
        // ready (handshake).  Host-mediated movement also engages the
        // FPGA's only DMA path, so it cannot start while the pipeline
        // computes; a broadcast reaches every other card, so any busy
        // pipeline blocks it.  Only a compute completion or a posted
        // ready can clear these checks: the sender waits as blocked.
        const bool bcast = task.peer == kBroadcast;
        if ((commAfter[g] != kNoIndex && !doneCompute[commAfter[g]]) ||
            !receiversReady(c, g) ||
            (!overlap &&
             (st.computeBusy ||
              (bcast ? computingCards > 0 : cards[task.peer].computeBusy)))) {
            blocked[c / 64] |= uint64_t{1} << (c % 64);
            return;
        }

        Tick dur = bcast ? net.broadcastTime(task.bytes, c, n)
                         : net.transferTime(task.bytes, c, task.peer);

        // Resolve this attempt's fate against the fault plan.  On the
        // fault-free path the outcome is always Ok with the exact wire
        // time, keeping event timing tick-identical to a build without
        // the fault layer.
        const uint32_t m = commMsg[g];
        Outcome out = Outcome::Ok;
        uint32_t attempt = 0;
        Tick consumed = dur;
        if (faultsActive) {
            attempt = attempts[m];
            if (plan.linkDegrade > 1.0)
                dur = scaleTick(dur, plan.linkDegrade);
            consumed = dur;
            if (plan.dropsTransfer(task.msg, attempt)) {
                // The data never arrives; the DTU's ack timer fires at
                // the timeout (or at the expected wire time if no
                // timer is configured).
                out = Outcome::Drop;
                consumed = retry.timeout ? retry.timeout : dur;
            } else if (retry.timeout && dur > retry.timeout) {
                out = Outcome::Timeout;
                consumed = retry.timeout;
            } else if (plan.corruptsTransfer(task.msg, attempt)) {
                out = Outcome::Corrupt; // checksum fails on arrival
            }
        }

        st.commBusy = true;
        forEachReceiver(c, g, [this](size_t r) { cards[r].commBusy = true; });
        stats.netBytes += task.bytes * (bcast ? n - 1 : 1);
        if (attempt == 0)
            ++stats.netMessages;

        st.flight = Flight{g, attempt, out, now, consumed};
        schedule(now + consumed, Event::Kind::TransferDone, c);
    }

    void
    recvReady(size_t c, uint32_t g)
    {
        auto& st = cards[c];
        st.commBusy = false;
        st.recvConfigured = true;
        uint32_t m = commMsg[g];
        ready.set(m, c);
        markDirty(c);
        wakeBlocked();
        // An unmatched recv quiesces here and is reported by the
        // deadlock diagnostics (no abort).
        if (senderOf[m] != kNoCard)
            schedule(now, Event::Kind::Sweep, senderOf[m]);
    }

    void
    transferDone(size_t c)
    {
        const Flight f = cards[c].flight;
        const uint32_t m = commMsg[f.comm];
        auto& s = cards[c];
        s.commBusy = false;
        s.commBusyTicks += f.consumed;
        emit(c, f.start, now, TaskEvent::Kind::Transfer, 0);
        markDirty(c);

        if (f.out == Outcome::Ok) {
            ++s.commIdx;
            forEachReceiver(c, f.comm, [&](size_t r) {
                auto& rs = cards[r];
                rs.commBusy = false;
                rs.recvConfigured = false;
                rs.commBusyTicks += f.consumed;
                emit(r, f.start, now, TaskEvent::Kind::Transfer, 0);
                ++rs.commIdx;
                received.set(m, r);
                markDirty(r);
            });
            ready.clearRow(m);
            finishTick = now;
            schedule(now, Event::Kind::SweepLanded, c, f.comm);
            return;
        }

        // Failed attempt: the wire/DTU stayed occupied for `consumed`
        // ticks; now the sender backs off exponentially and retries
        // the same head-of-queue task.  Receivers keep their DMA
        // configured (ready state survives a retry).
        forEachReceiver(c, f.comm, [&](size_t r) {
            auto& rs = cards[r];
            rs.commBusy = false;
            rs.commBusyTicks += f.consumed;
            emit(r, f.start, now, TaskEvent::Kind::Transfer, 0);
            markDirty(r);
        });
        switch (f.out) {
        case Outcome::Drop:
            ++stats.droppedTransfers;
            break;
        case Outcome::Timeout:
            ++stats.timedOutTransfers;
            break;
        case Outcome::Corrupt:
            ++stats.corruptedTransfers;
            break;
        case Outcome::Ok:
            break;
        }
        finishTick = now;
        uint32_t next = f.attempt + 1;
        attempts[m] = next;
        if (next >= retry.maxAttempts) {
            uint64_t msg = msgIds.id(m);
            RunError e;
            e.kind = RunError::Kind::TransferFailed;
            e.card = c;
            e.msg = msg;
            e.attempts = next;
            e.tick = now;
            e.message = strf(
                "transfer of msg %llu from card %zu failed after "
                "%u attempt(s) (%llu dropped, %llu corrupted, "
                "%llu timed out this run)",
                static_cast<unsigned long long>(msg), c, next,
                static_cast<unsigned long long>(stats.droppedTransfers),
                static_cast<unsigned long long>(stats.corruptedTransfers),
                static_cast<unsigned long long>(stats.timedOutTransfers));
            halt(std::move(e));
            return;
        }
        ++stats.retries;
        Tick backoff = retry.backoffFor(f.attempt);
        stats.retryBackoffTicks += backoff;
        schedule(now + backoff, Event::Kind::Sweep, c);
        if (!overlap) {
            // Freed endpoints may compute during the backoff window;
            // the sender re-arbitrates at retry time.
            schedule(now, Event::Kind::SweepReceivers, c, f.comm);
        }
    }

    /** Fold the dense per-run counters into `stats`. */
    void
    finish(Tick origin)
    {
        stats.makespan = finishTick - origin;
        stats.computeBusy.resize(n);
        stats.commBusy.resize(n);
        for (size_t c = 0; c < n; ++c) {
            stats.computeBusy[c] = cards[c].computeBusyTicks;
            stats.commBusy[c] = cards[c].commBusyTicks;
        }
        // Dense labels ascend with the label ids: append in map order.
        for (uint32_t l = 0; l < labelTicks.size(); ++l)
            if (labelSeen[l])
                stats.labelComputeTicks.emplace_hint(
                    stats.labelComputeTicks.end(),
                    static_cast<uint32_t>(labelIds.id(l)), labelTicks[l]);
    }

    /** Build wait-for diagnostics once the queue quiesced undrained. */
    DeadlockReport
    buildDeadlockReport() const
    {
        DeadlockReport report;

        // Owning card of each pending compute id (for SAC blockers);
        // the last pending carrier in card order wins.
        std::vector<size_t> pendingOwner(doneCompute.size(), kNoCard);
        for (size_t c = 0; c < n; ++c)
            for (size_t i = cards[c].computeIdx;
                 i < prog.cards[c].compute.size(); ++i)
                pendingOwner[computeId[computeBase[c] + i]] = c;

        std::set<uint64_t> unmatched;
        std::vector<std::vector<size_t>> edges(n);

        for (size_t c = 0; c < n; ++c) {
            const auto& st = cards[c];
            const auto& compute = prog.cards[c].compute;
            const auto& comm = prog.cards[c].comm;
            if (st.computeIdx == compute.size() &&
                st.commIdx == comm.size())
                continue;

            StuckCard sc;
            sc.card = c;
            sc.computeIdx = st.computeIdx;
            sc.computeTotal = compute.size();
            sc.commIdx = st.commIdx;
            sc.commTotal = comm.size();
            std::string why;

            if (st.computeIdx < compute.size()) {
                uint32_t g = computeBase[c] + st.computeIdx;
                auto idU =
                    static_cast<unsigned long long>(compute[st.computeIdx].id);
                for (uint32_t w = waitBegin[g]; w < waitBegin[g + 1]; ++w) {
                    uint32_t m = waitMsg[w];
                    if (received.test(m, c))
                        continue;
                    auto msgU = static_cast<unsigned long long>(msgIds.id(m));
                    if (senderOf[m] != kNoCard) {
                        edges[c].push_back(senderOf[m]);
                        why += strf("compute %llu waits msg %llu from "
                                    "card %zu; ",
                                    idU, msgU, senderOf[m]);
                    } else {
                        unmatched.insert(msgIds.id(m));
                        why += strf("compute %llu waits msg %llu that "
                                    "has no sender; ",
                                    idU, msgU);
                    }
                }
            }
            if (st.commIdx < comm.size()) {
                uint32_t g = commBase[c] + st.commIdx;
                const CommTask& t = comm[st.commIdx];
                uint32_t m = commMsg[g];
                auto msgU = static_cast<unsigned long long>(t.msg);
                if (t.kind == CommTask::Kind::Send) {
                    uint32_t after = commAfter[g];
                    if (after != kNoIndex && !doneCompute[after]) {
                        auto idU =
                            static_cast<unsigned long long>(t.afterCompute);
                        if (pendingOwner[after] != kNoCard) {
                            edges[c].push_back(pendingOwner[after]);
                            why += strf("send msg %llu waits compute "
                                        "%llu on card %zu; ",
                                        msgU, idU, pendingOwner[after]);
                        } else {
                            why += strf("send msg %llu waits dangling "
                                        "compute id %llu; ",
                                        msgU, idU);
                        }
                    } else if (t.peer == kBroadcast || t.peer < n) {
                        forEachReceiver(c, g, [&](size_t r) {
                            if (ready.test(m, r))
                                return;
                            edges[c].push_back(r);
                            why += strf("send msg %llu waits ready "
                                        "from card %zu; ",
                                        msgU, r);
                        });
                    }
                } else if (st.recvConfigured) {
                    if (senderOf[m] != kNoCard) {
                        edges[c].push_back(senderOf[m]);
                        why += strf("recv msg %llu waits data from "
                                    "card %zu; ",
                                    msgU, senderOf[m]);
                    } else {
                        unmatched.insert(t.msg);
                        why += strf("recv msg %llu has no matching "
                                    "send; ",
                                    msgU);
                    }
                }
            }
            if (why.empty())
                why = "quiesced with pending work";
            sc.waitingOn = std::move(why);
            report.stuck.push_back(std::move(sc));
        }

        report.unmatchedMsgs.assign(unmatched.begin(), unmatched.end());
        report.cycle = findCycle(edges);
        return report;
    }

    /** First wait-for cycle among the cards, if any (iterative DFS). */
    static std::vector<size_t>
    findCycle(const std::vector<std::vector<size_t>>& edges)
    {
        const size_t n = edges.size();
        enum : uint8_t { White, Grey, Black };
        std::vector<uint8_t> color(n, White);
        std::vector<size_t> stack;

        // Recursive DFS expressed with an explicit stack of (node,
        // next-edge-index) frames.
        for (size_t root = 0; root < n; ++root) {
            if (color[root] != White)
                continue;
            std::vector<std::pair<size_t, size_t>> frames;
            frames.emplace_back(root, 0);
            color[root] = Grey;
            stack.push_back(root);
            while (!frames.empty()) {
                auto& [node, idx] = frames.back();
                if (idx < edges[node].size()) {
                    size_t next = edges[node][idx++];
                    if (next >= n)
                        continue;
                    if (color[next] == Grey) {
                        // Found a cycle: slice the grey stack.
                        auto it = std::find(stack.begin(), stack.end(),
                                            next);
                        return std::vector<size_t>(it, stack.end());
                    }
                    if (color[next] == White) {
                        color[next] = Grey;
                        stack.push_back(next);
                        frames.emplace_back(next, 0);
                    }
                } else {
                    color[node] = Black;
                    stack.pop_back();
                    frames.pop_back();
                }
            }
        }
        return {};
    }
};

} // namespace

RunResult
ClusterExecutor::tryRun(const Program& program)
{
    RunResult res;
    if (program.cardCount() != cluster_.totalCards()) {
        res.error.kind = RunError::Kind::InvalidProgram;
        res.error.message =
            strf("program spans %zu card(s) but the cluster has %zu",
                 program.cardCount(), cluster_.totalCards());
        return res;
    }
    if (prevalidate_) {
        auto issues = program.validate();
        if (!issues.empty()) {
            res.error.kind = RunError::Kind::InvalidProgram;
            res.error.message = strf(
                "program validation found %zu issue(s); first: [%s] %s",
                issues.size(),
                programIssueKindName(issues.front().kind),
                issues.front().detail.c_str());
            res.error.issues = std::move(issues);
            return res;
        }
    }

    Engine eng(program, *network_, faults_, retry_, origin_);
    eng.record = recordTimeline_;
    eng.scheduleCardFailures();
    eng.schedule(origin_, Event::Kind::SweepAll, 0);
    eng.run();

    if (eng.err.ok() && !eng.allDone()) {
        eng.err.kind = RunError::Kind::Deadlock;
        eng.err.tick = eng.now;
        eng.err.deadlock = eng.buildDeadlockReport();
        eng.err.message = strf(
            "deadlock: %zu card(s) quiesced with pending work%s",
            eng.err.deadlock.stuck.size(),
            eng.err.deadlock.cycle.empty() ? ""
                                           : " (wait-for cycle found)");
    }

    eng.finish(origin_);
    res.stats = std::move(eng.stats);
    res.error = std::move(eng.err);
    return res;
}

RunStats
ClusterExecutor::run(const Program& program)
{
    RunResult res = tryRun(program);
    if (!res.ok()) {
        std::string detail = res.error.message;
        if (res.error.kind == RunError::Kind::Deadlock)
            detail += "\n" + res.error.deadlock.describe();
        // A user-visible, clean exit (never abort): callers that need
        // to survive failures use tryRun() and inspect the RunError.
        fatal("cluster run failed [%s]: %s",
              RunError::kindName(res.error.kind), detail.c_str());
    }
    return std::move(res.stats);
}

} // namespace hydra
