/**
 * @file
 * Per-card task programs: the instruction streams the host-side
 * scheduling software preloads onto every FPGA (paper Section IV-D).
 *
 * Each card carries two FIFO queues -- computation and communication --
 * whose interplay implements Procedure 1: data-independent compute
 * tasks (CT_i) run immediately, data-dependent ones (CT_d) wait for
 * recv-completion signals, sends wait for compute-completion signals
 * and the receiver's ready handshake.
 */

#ifndef HYDRA_SYNC_TASK_HH
#define HYDRA_SYNC_TASK_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "arch/opcost.hh"

namespace hydra {

/** Broadcast destination marker. */
constexpr size_t kBroadcast = std::numeric_limits<size_t>::max();

/** One computation task in a card's compute queue. */
struct ComputeTask
{
    /** Unique id within the program (used by send dependencies). */
    uint64_t id = 0;
    /** Execution time on this card. */
    Tick duration = 0;
    /** Message ids whose reception must complete first (CT_d):
     *  entries [waitBegin, waitBegin + waitCount) of the card's
     *  CardProgram::waits (read them through CardProgram::waitMsgs). */
    uint32_t waitBegin = 0;
    uint32_t waitCount = 0;
    /** Aggregated hardware cost, for energy accounting: an index into
     *  Program::costs, since a program's tasks share a few costs. */
    uint32_t costId = 0;
    /** Procedure tag for per-step statistics (e.g.\ "ConvBN"). */
    uint32_t label = 0;
};

/** One communication task in a card's comm queue. */
struct CommTask
{
    enum class Kind : uint8_t { Send, Recv };

    Kind kind = Kind::Send;
    /** Pairing key: every send matches recvs with the same msg id. */
    uint64_t msg = 0;
    /** Send: destination card or kBroadcast.  Recv: source card. */
    size_t peer = 0;
    /** Payload size. */
    uint64_t bytes = 0;
    /** Send only: compute-task id that must finish first (SAC);
     *  0 = payload already available. */
    uint64_t afterCompute = 0;
};

/** One static defect found by Program::validate(). */
struct ProgramIssue
{
    enum class Kind : uint8_t
    {
        /** A recv whose message id no card ever sends. */
        UnmatchedRecv,
        /** A send whose receiver(s) never post a matching recv. */
        UnmatchedSend,
        /** A send's afterCompute id exists in no compute queue. */
        DanglingAfterCompute,
        /** Send/recv peer index outside the cluster. */
        BadPeer,
        /** A card sending or receiving to/from itself. */
        SelfMessage,
        /** A compute task waiting on a message this card never recvs. */
        WaitOnUnknownMsg,
        /** The same message id sent by more than one card. */
        DuplicateSender,
    };

    Kind kind = Kind::UnmatchedRecv;
    /** Card whose queue carries the offending task. */
    size_t card = 0;
    /** Offending message id or compute id (kind-dependent). */
    uint64_t id = 0;
    std::string detail;
};

const char* programIssueKindName(ProgramIssue::Kind k);

/** The two preloaded queues of one card. */
struct CardProgram
{
    std::vector<ComputeTask> compute;
    std::vector<CommTask> comm;
    /** Every compute task's wait list in one array: a task is a range
     *  of it, not a vector of its own, and every entry belongs to
     *  exactly one task's range. */
    std::vector<uint64_t> waits;

    /** The message ids compute task `t` (one of `compute`) waits on. */
    std::span<const uint64_t>
    waitMsgs(const ComputeTask& t) const
    {
        return {waits.data() + t.waitBegin, t.waitCount};
    }

    bool
    empty() const
    {
        return compute.empty() && comm.empty();
    }
};

/** A whole-cluster program: one CardProgram per card. */
struct Program
{
    std::vector<CardProgram> cards;
    /** Names backing ComputeTask::label. */
    std::vector<std::string> labels;
    /** Distinct costs backing ComputeTask::costId. */
    std::vector<OpCost> costs;

    explicit Program(size_t n_cards = 0) : cards(n_cards) {}

    size_t cardCount() const { return cards.size(); }

    /** Intern a label name, returning its id. */
    uint32_t labelId(const std::string& name);

    /** Intern a cost, returning its id. */
    uint32_t costId(const OpCost& cost);

    /**
     * Static pre-execution checks: unmatched message ids, dangling
     * afterCompute references, out-of-range or self peers, compute
     * waits on messages the card never receives, duplicate senders.
     * Returns every defect found (empty = valid).  Programs built
     * through ProgramBuilder's sendTo/broadcastFrom helpers always
     * validate clean.
     */
    std::vector<ProgramIssue> validate() const;
};

/**
 * Helper for building programs: hands out unique compute-task and
 * message ids and appends tasks.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(size_t n_cards) : prog_(n_cards) {}

    Program take() { return std::move(prog_); }
    Program& program() { return prog_; }
    size_t cardCount() const { return prog_.cardCount(); }

    uint32_t
    label(const std::string& name)
    {
        return prog_.labelId(name);
    }

    /** Append a compute task; returns its id. */
    uint64_t addCompute(size_t card, Tick duration, const OpCost& cost,
                        uint32_t label,
                        std::vector<uint64_t> wait_msgs = {});

    /** Fresh message id for a send/recv pairing. */
    uint64_t newMsg() { return nextMsg_++; }

    void addSend(size_t card, uint64_t msg, size_t dst, uint64_t bytes,
                 uint64_t after_compute = 0);
    void addRecv(size_t card, uint64_t msg, size_t src, uint64_t bytes);

    /**
     * Convenience: send `bytes` from `src` (after compute task `after`)
     * to card `dst`; returns the message id.
     */
    uint64_t sendTo(size_t src, size_t dst, uint64_t bytes,
                    uint64_t after_compute = 0);

    /** Broadcast from `src` to all other cards. */
    uint64_t broadcastFrom(size_t src, uint64_t bytes,
                           uint64_t after_compute = 0);

  private:
    Program prog_;
    uint64_t nextCompute_ = 1; // 0 means "no dependency"
    uint64_t nextMsg_ = 1;
};

} // namespace hydra

#endif // HYDRA_SYNC_TASK_HH
