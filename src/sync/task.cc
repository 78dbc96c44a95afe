#include "sync/task.hh"

#include <map>
#include <set>

#include "common/logging.hh"

namespace hydra {

const char*
programIssueKindName(ProgramIssue::Kind k)
{
    switch (k) {
    case ProgramIssue::Kind::UnmatchedRecv:
        return "unmatched-recv";
    case ProgramIssue::Kind::UnmatchedSend:
        return "unmatched-send";
    case ProgramIssue::Kind::DanglingAfterCompute:
        return "dangling-after-compute";
    case ProgramIssue::Kind::BadPeer:
        return "bad-peer";
    case ProgramIssue::Kind::SelfMessage:
        return "self-message";
    case ProgramIssue::Kind::WaitOnUnknownMsg:
        return "wait-on-unknown-msg";
    case ProgramIssue::Kind::DuplicateSender:
        return "duplicate-sender";
    }
    return "?";
}

std::vector<ProgramIssue>
Program::validate() const
{
    std::vector<ProgramIssue> issues;
    auto add = [&](ProgramIssue::Kind kind, size_t card, uint64_t id,
                   std::string detail) {
        issues.push_back(
            ProgramIssue{kind, card, id, std::move(detail)});
    };

    const size_t n = cardCount();
    std::set<uint64_t> computeIds;
    for (size_t c = 0; c < n; ++c)
        for (const auto& t : cards[c].compute)
            computeIds.insert(t.id);

    // Message id -> sender (card, dst) and receivers (card, src).
    struct SendInfo
    {
        size_t card;
        size_t dst;
    };
    std::map<uint64_t, std::vector<SendInfo>> senders;
    std::map<uint64_t, std::map<size_t, size_t>> recvs; // msg->card->src

    for (size_t c = 0; c < n; ++c) {
        for (const auto& t : cards[c].comm) {
            if (t.kind == CommTask::Kind::Send) {
                if (t.peer != kBroadcast && t.peer >= n)
                    add(ProgramIssue::Kind::BadPeer, c, t.msg,
                        strf("send msg %llu to out-of-range card %zu",
                             (unsigned long long)t.msg, t.peer));
                else if (t.peer == c)
                    add(ProgramIssue::Kind::SelfMessage, c, t.msg,
                        strf("card %zu sends msg %llu to itself", c,
                             (unsigned long long)t.msg));
                if (t.afterCompute != 0 && !computeIds.count(t.afterCompute))
                    add(ProgramIssue::Kind::DanglingAfterCompute, c,
                        t.afterCompute,
                        strf("send msg %llu waits on unknown compute id "
                             "%llu",
                             (unsigned long long)t.msg,
                             (unsigned long long)t.afterCompute));
                senders[t.msg].push_back(SendInfo{c, t.peer});
            } else {
                if (t.peer >= n)
                    add(ProgramIssue::Kind::BadPeer, c, t.msg,
                        strf("recv msg %llu from out-of-range card %zu",
                             (unsigned long long)t.msg, t.peer));
                else if (t.peer == c)
                    add(ProgramIssue::Kind::SelfMessage, c, t.msg,
                        strf("card %zu receives msg %llu from itself", c,
                             (unsigned long long)t.msg));
                recvs[t.msg][c] = t.peer;
            }
        }
    }

    for (const auto& [msg, infos] : senders) {
        if (infos.size() > 1) {
            add(ProgramIssue::Kind::DuplicateSender, infos[1].card, msg,
                strf("msg %llu has %zu senders",
                     (unsigned long long)msg, infos.size()));
            continue;
        }
        const SendInfo& s = infos.front();
        auto rit = recvs.find(msg);
        if (s.dst == kBroadcast) {
            for (size_t r = 0; r < n; ++r) {
                if (r == s.card)
                    continue;
                if (rit == recvs.end() || !rit->second.count(r))
                    add(ProgramIssue::Kind::UnmatchedSend, s.card, msg,
                        strf("broadcast msg %llu has no recv on card "
                             "%zu",
                             (unsigned long long)msg, r));
            }
        } else if (s.dst < n) {
            if (rit == recvs.end() || !rit->second.count(s.dst))
                add(ProgramIssue::Kind::UnmatchedSend, s.card, msg,
                    strf("msg %llu to card %zu has no matching recv",
                         (unsigned long long)msg, s.dst));
        }
    }

    for (const auto& [msg, by_card] : recvs) {
        if (senders.count(msg))
            continue;
        for (const auto& [card, src] : by_card) {
            (void)src;
            add(ProgramIssue::Kind::UnmatchedRecv, card, msg,
                strf("recv of msg %llu that no card sends",
                     (unsigned long long)msg));
        }
    }

    for (size_t c = 0; c < n; ++c) {
        for (const auto& t : cards[c].compute) {
            for (uint64_t m : cards[c].waitMsgs(t)) {
                auto rit = recvs.find(m);
                if (rit == recvs.end() || !rit->second.count(c))
                    add(ProgramIssue::Kind::WaitOnUnknownMsg, c, m,
                        strf("compute id %llu waits on msg %llu that "
                             "card %zu never receives",
                             (unsigned long long)t.id,
                             (unsigned long long)m, c));
            }
        }
    }

    return issues;
}

uint32_t
Program::labelId(const std::string& name)
{
    for (size_t i = 0; i < labels.size(); ++i)
        if (labels[i] == name)
            return static_cast<uint32_t>(i);
    labels.push_back(name);
    return static_cast<uint32_t>(labels.size() - 1);
}

uint32_t
Program::costId(const OpCost& cost)
{
    for (size_t i = costs.size(); i-- > 0;)
        if (costs[i] == cost)
            return static_cast<uint32_t>(i);
    costs.push_back(cost);
    return static_cast<uint32_t>(costs.size() - 1);
}

uint64_t
ProgramBuilder::addCompute(size_t card, Tick duration, const OpCost& cost,
                           uint32_t label,
                           std::vector<uint64_t> wait_msgs)
{
    HYDRA_ASSERT(card < prog_.cardCount(), "card index out of range");
    uint64_t id = nextCompute_++;
    CardProgram& cp = prog_.cards[card];
    cp.compute.push_back(
        ComputeTask{id, duration, static_cast<uint32_t>(cp.waits.size()),
                    static_cast<uint32_t>(wait_msgs.size()),
                    prog_.costId(cost), label});
    cp.waits.insert(cp.waits.end(), wait_msgs.begin(), wait_msgs.end());
    return id;
}

void
ProgramBuilder::addSend(size_t card, uint64_t msg, size_t dst,
                        uint64_t bytes, uint64_t after_compute)
{
    HYDRA_ASSERT(card < prog_.cardCount(), "card index out of range");
    HYDRA_ASSERT(dst == kBroadcast || dst < prog_.cardCount(),
                 "destination out of range");
    HYDRA_ASSERT(dst != card, "self-send");
    prog_.cards[card].comm.push_back(
        CommTask{CommTask::Kind::Send, msg, dst, bytes, after_compute});
}

void
ProgramBuilder::addRecv(size_t card, uint64_t msg, size_t src,
                        uint64_t bytes)
{
    HYDRA_ASSERT(card < prog_.cardCount() && src < prog_.cardCount(),
                 "card index out of range");
    HYDRA_ASSERT(src != card, "self-recv");
    prog_.cards[card].comm.push_back(
        CommTask{CommTask::Kind::Recv, msg, src, bytes, 0});
}

uint64_t
ProgramBuilder::sendTo(size_t src, size_t dst, uint64_t bytes,
                       uint64_t after_compute)
{
    uint64_t msg = newMsg();
    addSend(src, msg, dst, bytes, after_compute);
    addRecv(dst, msg, src, bytes);
    return msg;
}

uint64_t
ProgramBuilder::broadcastFrom(size_t src, uint64_t bytes,
                              uint64_t after_compute)
{
    uint64_t msg = newMsg();
    addSend(src, msg, kBroadcast, bytes, after_compute);
    for (size_t c = 0; c < prog_.cardCount(); ++c)
        if (c != src)
            addRecv(c, msg, src, bytes);
    return msg;
}

} // namespace hydra
