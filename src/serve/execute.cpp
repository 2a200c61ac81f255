#include "serve/execute.h"

#include <cstdio>
#include <stdexcept>

#include "backend/memtest.h"
#include "field/manager.h"
#include "field/profile.h"
#include "field/schedule_io.h"
#include "lint/certify.h"
#include "lint/driver.h"
#include "march/coverage.h"
#include "march/library.h"
#include "memsim/fault_model.h"
#include "soc/chip.h"
#include "soc/schedule_io.h"
#include "soc/scheduler.h"

namespace pmbist::serve {
namespace {

std::string wall_note(double seconds) {
  char line[64];
  std::snprintf(line, sizeof line, "wall %.3f s\n", seconds);
  return line;
}

ExecResult exec_campaign(const Request& req, const ExecContext& ctx) {
  const auto alg = march::resolve_algorithm(req.algorithm);
  std::vector<memsim::FaultClass> classes;
  for (const auto& name : req.fault_classes) {
    const auto cls = memsim::parse_fault_class(name);
    if (!cls) throw std::runtime_error("unknown fault class '" + name + "'");
    classes.push_back(*cls);
  }
  if (classes.empty()) classes = memsim::all_fault_classes();

  const march::CoverageOptions copts{.seed = req.seed,
                                     .max_instances_per_class = req.samples,
                                     .jobs = req.jobs,
                                     .kernel = req.kernel,
                                     .cache = ctx.streams,
                                     .cancel = ctx.cancel,
                                     .progress = ctx.progress};
  const std::vector<march::MarchAlgorithm> algs{alg};
  return {.payload = march::format_coverage_table(
              march::coverage_matrix(algs, classes, req.geometry, copts),
              classes)};
}

ExecResult exec_soc(const Request& req, const ExecContext& ctx) {
  soc::ChipFile chip = soc::parse_chip(req.chip);
  if (req.power_budget >= 0.0) chip.plan.set_power_budget(req.power_budget);

  const auto result = soc::run_soc(chip.description, chip.plan,
                                   {.jobs = req.jobs,
                                    .max_failures = req.max_failures,
                                    .backend = req.backend,
                                    .cancel = ctx.cancel,
                                    .progress = ctx.progress});
  ExecResult out{
      .exit_code = result.all_healthy() ? 0 : 1,
      .payload = soc::format_soc_report(chip.description, chip.plan, result),
      .notes = wall_note(result.wall_seconds)};
  if (!req.emit_schedule.empty())
    out.schedule = soc::to_schedule_text("soc", result.schedule);
  if (ctx.certify)
    out.certificate =
        lint::certify_soc(chip.description, chip.plan, result.schedule);
  return out;
}

ExecResult exec_field(const Request& req, const ExecContext& ctx) {
  const soc::ChipFile chip = soc::parse_chip(req.chip);
  const field::MissionProfile profile = field::parse_profile_text(req.profile);

  const auto report = field::run_field(chip.description, chip.plan, profile,
                                       {.jobs = req.jobs,
                                        .max_failures = req.max_failures,
                                        .backend = req.backend,
                                        .cancel = ctx.cancel,
                                        .progress = ctx.progress});
  ExecResult out{.exit_code = report.all_healthy() ? 0 : 1,
                 .payload = field::format_field_report(report),
                 .notes = wall_note(report.wall_seconds)};
  if (!req.emit_schedule.empty())
    out.schedule = field::to_field_schedule_text("field", report.sessions);
  if (ctx.certify)
    out.certificate =
        lint::certify_field(chip.description, chip.plan, profile, report);
  return out;
}

ExecResult exec_memtest(const Request& req, const ExecContext& ctx) {
  backend::MemtestOptions opts;
  opts.size_bytes = req.size_bytes;
  opts.passes = req.passes;
  opts.backgrounds = req.backgrounds;
  opts.jobs = req.jobs;
  opts.backend = req.backend;
  opts.huge_pages = req.huge_pages;
  opts.max_failures = req.max_failures;
  opts.inject_error = req.inject;
  opts.cancel = ctx.cancel;
  if (ctx.progress)
    opts.progress = [&ctx](std::uint64_t done, std::uint64_t total) {
      ctx.progress(static_cast<int>(done), static_cast<int>(total));
    };
  const auto report =
      backend::run_memtest(march::resolve_algorithm(req.algorithm), opts);
  return {.exit_code = report.passed() ? 0 : 1,
          .payload = backend::format_memtest_report(report),
          .notes = backend::format_memtest_throughput(report),
          .completed = report.completed};
}

ExecResult exec_lint(const Request& req) {
  const lint::LintOptions lopts{.storage_depth = req.storage_depth,
                                .buffer_depth = req.buffer_depth,
                                .chip = req.chip,
                                .profile = req.profile,
                                .certify = req.certify,
                                .against = req.against,
                                // The verdict is the same for every worker
                                // count, and one worker is as fast here.
                                .jobs = 1};
  const lint::Report report = lint::lint_text(req.input, req.unit, lopts);
  return {.exit_code = report.has_errors() ? 1 : 0,
          .payload = lint::format_cli(report, req.unit, req.lint_json)};
}

}  // namespace

ExecResult execute(const Request& req, const ExecContext& ctx) {
  switch (req.kind) {
    case RequestKind::Campaign: return exec_campaign(req, ctx);
    case RequestKind::Soc: return exec_soc(req, ctx);
    case RequestKind::Field: return exec_field(req, ctx);
    case RequestKind::Memtest: return exec_memtest(req, ctx);
    case RequestKind::Lint: return exec_lint(req);
    case RequestKind::Cancel:
    case RequestKind::Stats: break;
  }
  throw std::logic_error("not a work request");
}

}  // namespace pmbist::serve
