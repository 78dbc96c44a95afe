#include "serve/spec.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace hydra {

const char*
arrivalModeName(ArrivalMode m)
{
    switch (m) {
    case ArrivalMode::Open:
        return "open";
    case ArrivalMode::Closed:
        return "closed";
    case ArrivalMode::Trace:
        return "trace";
    }
    return "?";
}

const char*
schedPolicyName(SchedPolicy p)
{
    switch (p) {
    case SchedPolicy::Fifo:
        return "fifo";
    case SchedPolicy::Cake:
        return "cake";
    }
    return "?";
}

namespace {

/** Split `s` on `sep` (no empty-field collapsing). */
std::vector<std::string>
splitOn(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string field;
    while (std::getline(ss, field, sep))
        out.push_back(field);
    return out;
}

} // namespace

bool
ServeSpec::tryParse(const std::string& spec, ServeSpec& out,
                    SpecError& err)
{
    ServeSpec parsed;
    // Per-tenant `opt=` assignments win over a spec-wide `opt=` default
    // regardless of item order; the default is applied at the end to
    // every tenant without an explicit level (including trace-implied
    // ones).  Index-parallel with parsed.tenants.
    std::vector<char> explicitOpt;
    // Tenant name -> index in parsed.tenants: a spec may declare 10^4
    // tenants, and a scan per declaration would be quadratic.
    std::unordered_map<std::string, size_t> tenantIndex;
    auto findTenant = [&](const std::string& name) -> TenantSpec* {
        auto it = tenantIndex.find(name);
        return it == tenantIndex.end() ? nullptr
                                       : &parsed.tenants[it->second];
    };
    auto addTenant = [&](TenantSpec t) {
        tenantIndex.emplace(t.name, parsed.tenants.size());
        parsed.tenants.push_back(std::move(t));
    };
    bool optDefaultSet = false;
    OptLevel optDefault = OptLevel::Safe;
    std::string item;
    auto fail = [&](std::string msg, std::string token) {
        err.message = std::move(msg);
        // An empty sub-token (e.g. "tenant=:open:x:1") still names the
        // offending item, never an empty diagnosis.
        err.token = token.empty() ? item : std::move(token);
        return false;
    };
    std::stringstream ss(spec);
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        auto eq = item.find('=');
        if (eq == std::string::npos)
            return fail("serve spec item is not key=value", item);
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        if (val.empty())
            return fail("serve spec item has an empty value", item);
        if (key == "seed") {
            if (!parseU64(val, parsed.seed))
                return fail("seed wants an unsigned integer", val);
        } else if (key == "clusters") {
            if (!parseSize(val, parsed.clusters) || parsed.clusters == 0)
                return fail("clusters wants an integer >= 1", val);
        } else if (key == "duration") {
            if (!parseF64(val, parsed.durationSeconds))
                return fail("duration wants seconds", val);
        } else if (key == "queue") {
            if (!parseSize(val, parsed.queueCapacity))
                return fail("queue wants an unsigned bound", val);
        } else if (key == "requests") {
            if (!parseU64(val, parsed.maxRequests))
                return fail("requests wants an unsigned cap", val);
        } else if (key == "sched") {
            auto f = splitOn(val, ':');
            if (f[0] == "fifo") {
                if (f.size() != 1)
                    return fail("sched=fifo takes no parameters", val);
                parsed.sched = SchedPolicy::Fifo;
            } else if (f[0] == "cake") {
                parsed.sched = SchedPolicy::Cake;
                if (f.size() > 1 &&
                    (!parseF64(f[1], parsed.waitBudgetSeconds) ||
                     parsed.waitBudgetSeconds <= 0))
                    return fail("cake wait budget wants seconds > 0",
                                f[1]);
                if (f.size() > 2 &&
                    (!parseF64(f[2], parsed.kickSeconds) ||
                     parsed.kickSeconds <= 0))
                    return fail("cake kick cap wants seconds > 0",
                                f[2]);
                for (size_t qi = 3; qi < f.size(); ++qi) {
                    double q = 0.0;
                    if (!parseF64(f[qi], q) || q <= 0)
                        return fail(
                            "cake tier quantum wants seconds > 0",
                            f[qi]);
                    parsed.quantumSeconds.push_back(q);
                }
            } else {
                return fail("sched policy must be fifo|cake", f[0]);
            }
        } else if (key == "tenant" || key == "tenants") {
            auto f = splitOn(val, ':');
            size_t count = 1;
            size_t base = 0;
            if (key == "tenants") {
                if (f.size() < 5)
                    return fail(
                        "tenants wants COUNT:PREFIX:MODE:WL:ARG[...]",
                        val);
                if (!parseSize(f[0], count) || count == 0)
                    return fail("tenants wants a count >= 1", f[0]);
                if (count > 1000000)
                    return fail("tenants count capped at 1000000",
                                f[0]);
                base = 1;
            } else if (f.size() < 4) {
                return fail("tenant wants NAME:MODE:WL:ARG[...]", val);
            }
            TenantSpec t;
            t.name = f[base + 0];
            t.workload = f[base + 2];
            if (t.name.empty() || t.workload.empty())
                return fail("tenant wants non-empty NAME and WL", val);
            if (f[base + 1] == "open") {
                t.mode = ArrivalMode::Open;
                if (!parseF64(f[base + 3], t.rate) || t.rate <= 0)
                    return fail("open-loop rate must be > 0",
                                f[base + 3]);
            } else if (f[base + 1] == "closed") {
                t.mode = ArrivalMode::Closed;
                if (!parseSize(f[base + 3], t.clients) ||
                    t.clients == 0)
                    return fail("closed loop wants >= 1 client",
                                f[base + 3]);
                if (f.size() > base + 4 &&
                    (!parseF64(f[base + 4], t.thinkSeconds) ||
                     t.thinkSeconds < 0))
                    return fail("think time wants seconds >= 0",
                                f[base + 4]);
            } else {
                return fail("tenant mode must be open|closed",
                            f[base + 1]);
            }
            if (key == "tenant") {
                if (findTenant(t.name))
                    return fail("duplicate tenant", t.name);
                addTenant(std::move(t));
                explicitOpt.push_back(0);
            } else {
                // Bulk expansion: COUNT clones named PREFIX#i, all
                // sharing the template's mode/workload/rate.
                for (size_t i = 0; i < count; ++i) {
                    TenantSpec ti = t;
                    ti.name = strf("%s#%zu", t.name.c_str(), i);
                    if (findTenant(ti.name))
                        return fail("duplicate tenant", ti.name);
                    addTenant(std::move(ti));
                    explicitOpt.push_back(0);
                }
            }
        } else if (key == "prio") {
            auto f = splitOn(val, ':');
            if (f.size() != 2)
                return fail("prio wants NAME:P", val);
            double p = 0;
            if (!parseF64(f[1], p) || p != static_cast<int>(p))
                return fail("prio wants an integer tier", f[1]);
            // A trailing '*' prefix-matches (bulk tenants= blocks).
            size_t matched = 0;
            if (!f[0].empty() && f[0].back() == '*') {
                std::string prefix = f[0].substr(0, f[0].size() - 1);
                for (auto& t : parsed.tenants)
                    if (t.name.compare(0, prefix.size(), prefix) == 0) {
                        t.priority = static_cast<int>(p);
                        ++matched;
                    }
            } else if (TenantSpec* t = findTenant(f[0])) {
                t->priority = static_cast<int>(p);
                ++matched;
            }
            if (!matched)
                return fail("prio names an undeclared tenant "
                            "(declare it first)",
                            f[0]);
        } else if (key == "opt") {
            auto parseLevel = [](const std::string& s, OptLevel& lv) {
                if (s == "safe")
                    lv = OptLevel::Safe;
                else if (s == "aggressive")
                    lv = OptLevel::Aggressive;
                else
                    return false;
                return true;
            };
            auto f = splitOn(val, ':');
            if (f.size() == 1) {
                // Spec-wide default, applied after parsing to every
                // tenant without an explicit per-tenant level.
                if (optDefaultSet)
                    return fail("duplicate opt default (one spec-wide "
                                "opt= allowed)",
                                val);
                if (!parseLevel(f[0], optDefault))
                    return fail("opt level must be safe|aggressive",
                                f[0]);
                optDefaultSet = true;
            } else if (f.size() == 2) {
                OptLevel lv = OptLevel::Safe;
                if (!parseLevel(f[1], lv))
                    return fail("opt level must be safe|aggressive",
                                f[1]);
                // A trailing '*' prefix-matches, like prio=.
                size_t matched = 0;
                if (!f[0].empty() && f[0].back() == '*') {
                    std::string prefix =
                        f[0].substr(0, f[0].size() - 1);
                    for (size_t i = 0; i < parsed.tenants.size(); ++i)
                        if (parsed.tenants[i].name.compare(
                                0, prefix.size(), prefix) == 0) {
                            parsed.tenants[i].opt = lv;
                            explicitOpt[i] = 1;
                            ++matched;
                        }
                } else {
                    for (size_t i = 0; i < parsed.tenants.size(); ++i)
                        if (parsed.tenants[i].name == f[0]) {
                            parsed.tenants[i].opt = lv;
                            explicitOpt[i] = 1;
                            ++matched;
                        }
                }
                if (!matched)
                    return fail("opt names an undeclared tenant "
                                "(declare it first)",
                                f[0]);
            } else {
                return fail("opt wants LEVEL or NAME:LEVEL", val);
            }
        } else if (key == "at") {
            auto f = splitOn(val, ':');
            if (f.size() != 3)
                return fail("at wants SEC:NAME:WL", val);
            TraceEntry e;
            if (!parseF64(f[0], e.atSeconds) || e.atSeconds < 0)
                return fail("at wants a non-negative arrival time",
                            f[0]);
            e.tenant = f[1];
            e.workload = f[2];
            if (e.tenant.empty() || e.workload.empty())
                return fail("at wants non-empty NAME and WL", val);
            parsed.trace.push_back(std::move(e));
        } else if (key == "group") {
            auto f = splitOn(val, ':');
            if (f.size() < 2 || f.size() > 3)
                return fail("group wants WL:CARDS[:MIN]", val);
            GroupPlan g;
            g.workload = f[0];
            if (g.workload.empty())
                return fail("group wants a non-empty workload", val);
            if (!parseSize(f[1], g.cards))
                return fail("group wants an unsigned card count", f[1]);
            if (f.size() > 2 && !parseSize(f[2], g.minCards))
                return fail("group wants an unsigned card floor", f[2]);
            if (g.cards == 0 || g.minCards == 0 || g.minCards > g.cards)
                return fail("group wants 1 <= MIN <= CARDS", val);
            parsed.groups.push_back(std::move(g));
        } else {
            return fail("unknown serve spec key (want seed/clusters/"
                        "duration/queue/requests/sched/tenant/tenants/"
                        "prio/opt/at/group)",
                        key);
        }
    }
    if (parsed.durationSeconds <= 0)
        return fail("serve duration must be > 0",
                    strf("%g", parsed.durationSeconds));
    if (parsed.queueCapacity == 0)
        return fail("serve queue capacity must be >= 1", "0");
    if (parsed.kickSeconds < parsed.waitBudgetSeconds)
        return fail("cake kick cap must be >= the wait budget",
                    strf("%g", parsed.kickSeconds));

    // The spec-wide opt default covers every tenant that did not get
    // an explicit per-tenant level.
    if (optDefaultSet)
        for (size_t i = 0; i < parsed.tenants.size(); ++i)
            if (!explicitOpt[i])
                parsed.tenants[i].opt = optDefault;

    // Trace entries for undeclared tenants implicitly declare a
    // trace-only tenant (replay convenience).
    for (const auto& e : parsed.trace) {
        if (!findTenant(e.tenant)) {
            TenantSpec t;
            t.name = e.tenant;
            t.mode = ArrivalMode::Trace;
            t.workload = e.workload;
            t.opt = optDefault;
            addTenant(std::move(t));
        }
    }
    out = std::move(parsed);
    return true;
}

ServeSpec
ServeSpec::parse(const std::string& spec)
{
    ServeSpec out;
    SpecError err;
    if (!tryParse(spec, out, err))
        fatal("bad serve spec: %s", err.describe().c_str());
    return out;
}

std::string
ServeSpec::describe() const
{
    std::string s = strf("seed=%llu duration=%.3gs queue=%zu",
                         static_cast<unsigned long long>(seed),
                         durationSeconds, queueCapacity);
    if (clusters > 1)
        s += strf(" clusters=%zu", clusters);
    if (sched != SchedPolicy::Fifo) {
        s += strf(" sched=%s(wait %.3gs kick %.3gs",
                  schedPolicyName(sched), waitBudgetSeconds,
                  kickSeconds);
        for (size_t i = 0; i < quantumSeconds.size(); ++i)
            s += strf("%s%.3gs", i ? "/" : " quanta ",
                      quantumSeconds[i]);
        s += ")";
    }
    if (tenants.size() > 12) {
        // Bulk specs (10k-tenant runs): summarize instead of listing.
        s += strf(" %zu tenant(s)", tenants.size());
        size_t aggressive = 0;
        for (const auto& t : tenants)
            if (t.opt != OptLevel::Safe)
                ++aggressive;
        if (aggressive)
            s += strf(" (%zu aggressive)", aggressive);
    } else {
        for (const auto& t : tenants) {
            s += strf(" %s[%s %s", t.name.c_str(),
                      arrivalModeName(t.mode), t.workload.c_str());
            if (t.mode == ArrivalMode::Open)
                s += strf(" %.3g req/s", t.rate);
            else if (t.mode == ArrivalMode::Closed)
                s += strf(" %zu client(s) think %.3gs", t.clients,
                          t.thinkSeconds);
            if (t.priority != 1)
                s += strf(" prio %d", t.priority);
            if (t.opt != OptLevel::Safe)
                s += strf(" opt %s", optLevelName(t.opt));
            s += "]";
        }
    }
    if (!trace.empty())
        s += strf(" +%zu trace arrival(s)", trace.size());
    for (const auto& g : groups)
        s += strf(" group[%s x%zu min %zu]", g.workload.c_str(), g.cards,
                  g.minCards);
    return s;
}

std::vector<std::string>
ServeSpec::workloadTable() const
{
    std::vector<std::string> table;
    auto intern = [&](const std::string& w) {
        if (std::find(table.begin(), table.end(), w) == table.end())
            table.push_back(w);
    };
    for (const auto& t : tenants)
        intern(t.workload);
    for (const auto& e : trace)
        intern(e.workload);
    for (const auto& g : groups)
        intern(g.workload);
    return table;
}

} // namespace hydra
