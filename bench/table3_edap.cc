/**
 * @file
 * Reproduces paper Table III: EDAP (energy-delay-area product,
 * 7nm-standardized) of the Hydra prototypes against published ASIC
 * numbers.  Lower is better.
 */

#include "analysis/energy.hh"
#include "bench_util.hh"

using namespace hydra;
using namespace hydra::bench;

namespace {

double
runEdap(const PrototypeSpec& spec, const WorkloadModel& wl)
{
    InferenceRunner runner(spec);
    InferenceResult res = runner.runPlan(*runner.planFor(wl));
    EnergyParams ep = asicEnergyParams();
    size_t cards = spec.cluster.totalCards();
    EnergyBreakdown e =
        computeEnergy(res.total, ep, spec.fpga, cards);
    double area = hydraCardAreaMm2() * static_cast<double>(cards);
    return edap(e.total(), res.seconds(), area);
}

} // namespace

int
main()
{
    printHeaderBlock("Table III: efficiency (EDAP, lower is better)");

    auto models = allBenchmarks();

    TextTable t;
    t.header({"Machine", "ResNet-18", "ResNet-50", "BERT-base",
              "OPT-6.7B", "source"});
    for (const auto& row : asicEdapTable())
        t.addRow({row.name, fmtF(row.resnet18, 2), fmtF(row.resnet50, 1),
                  fmtF(row.bert, 1), fmtF(row.opt, 0), "published"});
    t.addSeparator();

    std::vector<PrototypeSpec> specs;
    specs.push_back(hydraSSpec());
    specs.push_back(hydraMSpec());
    specs.push_back(hydraLSpec());

    std::vector<std::vector<double>> vals;
    for (const auto& spec : specs) {
        std::vector<double> row;
        for (const auto& wl : models)
            row.push_back(runEdap(spec, wl));
        vals.push_back(row);
        t.addRow({spec.name, fmtF(row[0], 2), fmtF(row[1], 1),
                  fmtF(row[2], 1), fmtF(row[3], 0), "simulated"});
    }
    t.print();

    // Shape checks: efficiency degrades S -> M -> L (communication),
    // and on OPT-6.7B Hydra beats every ASIC.
    TextTable k("\nKey shapes (paper Section V-C)");
    k.header({"Check", "value", "expectation"});
    k.addRow({"Hydra-S <= Hydra-M <= Hydra-L (ResNet-18)",
              fmtF(vals[0][0], 2) + " / " + fmtF(vals[1][0], 2) + " / " +
                  fmtF(vals[2][0], 2),
              "monotonic"});
    double sharp_opt = asicEdapTable()[3].opt;
    k.addRow({"Hydra-L vs SHARP on OPT-6.7B",
              fmtX(sharp_opt / vals[2][3]),
              "paper: 12.2x better"});
    double cl_opt = asicEdapTable()[0].opt;
    k.addRow({"Hydra-L vs CraterLake on OPT-6.7B",
              fmtX(cl_opt / vals[2][3]), "paper: 19.4x better"});
    k.print();
    return 0;
}
