// hexabench: data generator, load generator and traced replay behind
// run.py (see README.md).
//
//   hexabench gen   --seed N --out FILE
//   hexabench drive --workload W --seed N --seconds S --data FILE --port P
//   hexabench trace --workload W --seed N --seconds S --data FILE --dir D
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "data/lubm_generator.h"
#include "rdf/ntriples.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hexabench gen|drive|trace --seed N [--workload W] "
               "[--seconds S] [--data FILE] [--port P] [--dir D] "
               "[--out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("seed")) return Usage();
  const std::uint64_t seed = std::stoull(args["seed"]);

  if (mode == "gen") {
    if (!args.count("out")) return Usage();
    hexastore::data::LubmOptions options;
    options.seed = seed;
    const auto triples = hexastore::data::LubmGenerator(options).Generate(
        hexabench::kPreloadTriples);
    std::ofstream out(args["out"], std::ios::binary);
    hexastore::WriteNTriples(triples, out);
    out.close();
    if (!out) {
      std::fprintf(stderr, "hexabench: cannot write %s\n",
                   args["out"].c_str());
      return 1;
    }
    return 0;
  }

  hexabench::Workload workload;
  if (!args.count("workload") || !args.count("data") ||
      !args.count("seconds") ||
      !hexabench::ParseWorkload(args["workload"], &workload)) {
    return Usage();
  }
  auto model = hexabench::Model::Build(workload, seed, args["data"]);
  if (!model.ok()) {
    std::fprintf(stderr, "hexabench: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  const double seconds = std::stod(args["seconds"]);
  if (mode == "drive" && args.count("port")) {
    return hexabench::RunDrive(*model.value(), std::stoi(args["port"]),
                               seconds);
  }
  if (mode == "trace" && args.count("dir")) {
    return hexabench::RunTrace(*model.value(), args["data"], args["dir"],
                               seconds);
  }
  return Usage();
}
