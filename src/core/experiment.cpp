#include "core/experiment.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace columbia::core {

namespace {

Experiment make(std::string id, std::string paper_ref, std::string title,
                Report (*driver)(const Exec&)) {
  Experiment e;
  e.id = std::move(id);
  e.paper_ref = std::move(paper_ref);
  e.title = std::move(title);
  e.run_exec = driver;
  return e;
}

}  // namespace

const std::vector<Experiment>& experiment_registry() {
  static const std::vector<Experiment> registry = {
      make("table1", "Sec. 2, Table 1", "Altix node characteristics",
           table1_node_characteristics),
      make("fig5", "Sec. 4.1.1, Fig. 5",
           "HPCC latency/bandwidth on one node of each type",
           fig5_hpcc_single_box),
      make("fig6", "Sec. 4.1.2, Fig. 6",
           "NPB per-CPU rates (MPI and OpenMP) on the three node types",
           fig6_npb_node_types),
      make("table2", "Sec. 4.1.3, Table 2",
           "INS3D turbopump: MLP groups x OpenMP threads, 3700 vs BX2b",
           table2_ins3d),
      make("table3", "Sec. 4.1.4, Table 3",
           "OVERFLOW-D rotor: strong scaling, 3700 vs BX2b", table3_overflow),
      make("sec42", "Sec. 4.2", "CPU stride effects on DGEMM/STREAM/b_eff",
           sec42_cpu_stride),
      make("fig7", "Sec. 4.3, Fig. 7",
           "Thread pinning vs no pinning (SP-MZ class C)", fig7_pinning),
      make("fig8", "Sec. 4.4, Fig. 8",
           "Intel compiler versions on OpenMP NPB", fig8_compiler_versions),
      make("table4", "Sec. 4.4, Table 4",
           "INS3D and OVERFLOW-D under compilers 7.1 vs 8.1",
           table4_app_compilers),
      make("fig9", "Sec. 4.5, Fig. 9",
           "Process/thread mixes for BT-MZ within one node",
           fig9_process_thread_mixes),
      make("fig10", "Sec. 4.6.1, Fig. 10",
           "Multinode HPCC: NUMAlink4 vs InfiniBand", fig10_hpcc_multinode),
      make("fig11", "Sec. 4.6.2, Fig. 11",
           "NPB-MZ class E across four BX2b boxes", fig11_npbmz_multinode),
      make("table5", "Sec. 4.6.3, Table 5",
           "Molecular dynamics weak scaling to 2040 CPUs",
           table5_md_weak_scaling),
      make("table6", "Sec. 4.6.4, Table 6",
           "OVERFLOW-D across BX2b nodes via NUMAlink4 and InfiniBand",
           table6_overflow_multinode),
      make("ext-linpack", "Sec. 1 (Top500)",
           "Linpack on the full 20-node Columbia", ext_linpack),
      make("ext-shmem", "Sec. 5 (future work)",
           "SHMEM one-sided vs MPI two-sided transport", ext_shmem_vs_mpi),
      make("ext-ins3d-multinode", "Sec. 5 (future work)",
           "Multinode INS3D over SHMEM/NUMAlink4 vs MPI/InfiniBand",
           ext_ins3d_multinode),
      make("ext-io", "Sec. 4.6.4 (I/O caveat)",
           "OVERFLOW-D under shared-parallel vs NFS filesystems",
           ext_io_filesystems),
      make("ext-checkpoint", "Sec. 5 (resilience)",
           "Checkpoint/restart interval sweep under storage faults",
           ext_checkpoint_restart),
      make("ext-btio", "Sec. 5 (future work)",
           "BT-IO strided appends: file-per-process vs collective buffering",
           ext_btio_collective),
      make("ext-io-overlap", "Sec. 5 (future work)",
           "I/O-vs-compute overlap via asynchronous dumps",
           ext_io_overlap),
      make("ext-classf", "Sec. 3.2 (new classes)",
           "NPB-MZ Class F on the full 20-box Columbia", ext_class_f),
      make("ext-columbia-full", "Sec. 2 (whole machine)",
           "Full 10240-CPU Columbia rings + FT transpose (flow transport)",
           ext_columbia_full),
      make("ablation-alltoall", "DESIGN.md",
           "All-to-all algorithm choice (pairwise vs flood)",
           ablation_alltoall_algorithms),
      make("ablation-grouping", "DESIGN.md",
           "Grouping strategy (connectivity-aware LPT vs round-robin)",
           ablation_grouping_strategies),
      make("ablation-cache", "DESIGN.md",
           "Working-set crossover behind the BX2b cache jump",
           ablation_cache_slab),
      make("ablation-variability", "DESIGN.md (simfault)",
           "Run-to-run slowdown distribution vs OS-jitter intensity",
           ablation_variability),
      make("ablation-degraded-fabric", "DESIGN.md (simfault)",
           "Makespan vs fraction of degraded links, NUMAlink4 vs IB",
           ablation_degraded_fabric),
  };
  return registry;
}

const Experiment* find_experiment(const std::string& id) {
  const auto& reg = experiment_registry();
  const auto it = std::find_if(
      reg.begin(), reg.end(),
      [&](const Experiment& e) { return e.id == id; });
  return it == reg.end() ? nullptr : &*it;
}

std::string registry_listing() {
  std::size_t width = 0;
  for (const auto& e : experiment_registry()) {
    width = std::max(width, e.id.size());
  }
  std::ostringstream os;
  os << "Available experiments:\n";
  for (const auto& e : experiment_registry()) {
    os << "  " << e.id << std::string(width - e.id.size() + 2, ' ')
       << e.paper_ref << " — " << e.title << "\n";
  }
  return os.str();
}

int paper_artifact_count() {
  const auto& reg = experiment_registry();
  return static_cast<int>(std::count_if(
      reg.begin(), reg.end(), [](const Experiment& e) {
        return e.id.rfind("ablation-", 0) != 0 &&
               e.id.rfind("ext-", 0) != 0;
      }));
}

bool write_file(const std::filesystem::path& path, const std::string& body,
                std::string& error) {
  std::ofstream os(path, std::ios::binary);
  os << body << std::flush;
  if (!os) {
    error = "cannot write " + path.string();
    return false;
  }
  return true;
}

bool write_report_csvs(const Report& report, const std::string& id,
                       const std::filesystem::path& dir, std::string& error) {
  int index = 0;
  const auto write_one = [&](std::string slug, const std::string& csv) {
    for (char& c : slug) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    const std::string name = id + "_" + std::to_string(index++) + "_" +
                             slug.substr(0, 60) + ".csv";
    return write_file(dir / name, csv, error);
  };
  for (const auto& t : report.tables) {
    if (!write_one(t.title(), t.csv())) return false;
  }
  for (const auto& f : report.figures) {
    if (!write_one(f.title(), f.csv())) return false;
  }
  return true;
}

}  // namespace columbia::core
