// Benchmark harness linked against the colscope libraries. Two commands:
//
//   perfbench_harness oracle --report-tsv FILE --ddl F [--ddl F ...]
//     Checks a `colscope match` report (flattened by run.py into
//     "E<TAB>name<TAB>kind<TAB>0|1" and "L<TAB>a<TAB>b" lines) against
//     the independent oracle in oracle.cc. Prints one JSON object whose
//     "ok" field is the verdict.
//
//   perfbench_harness layers --mode serial|federated|serve --seconds S
//       --work-dir DIR --trace-out FILE --report-out FILE
//       [--threads N] --ddl F ... [--variant F ...]
//     Repeats the workload's operation through the layers' public calls,
//     recording a span around each call, until S seconds have passed.
//     Writes the spans as a Chrome trace and prints per-layer medians.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/pipeline_cache.h"
#include "common/checksum.h"
#include "common/thread_pool.h"
#include "embed/hashed_encoder.h"
#include "exchange/exchange.h"
#include "exchange/transport.h"
#include "matching/sim.h"
#include "obs/trace.h"
#include "oracle.h"
#include "pipeline/checkpoint.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "schema/ddl_parser.h"
#include "schema/schema_set.h"
#include "scoping/collaborative.h"
#include "scoping/model_io.h"
#include "scoping/signature_io.h"
#include "scoping/signatures.h"
#include "scoping/streamline.h"
#include "server/protocol.h"

namespace {

using namespace colscope;

constexpr double kExplainedVariance = 0.8;  // CLI default --v.
constexpr double kSimThreshold = 0.6;       // CLI default for --matcher sim.

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The schema name the CLI derives from a DDL path.
std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.resize(dot);
  return name;
}

struct Source {
  std::string name;
  std::string text;
};

std::vector<Source> ReadSources(const std::vector<std::string>& paths) {
  std::vector<Source> out;
  for (const std::string& path : paths) out.push_back({Basename(path), ReadFile(path)});
  return out;
}

schema::SchemaSet ParseSources(const std::vector<Source>& sources) {
  std::vector<schema::Schema> schemas;
  for (const Source& source : sources) {
    schemas.push_back(Unwrap(schema::ParseDdl(source.text, source.name), "parse"));
  }
  return schema::SchemaSet(std::move(schemas));
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> ddl;
  std::vector<std::string> variants;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_harness oracle|layers [flags]");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) Die(std::string("flag without value: ") + argv[i]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--ddl") {
      args.ddl.push_back(value);
    } else if (flag == "--variant") {
      args.variants.push_back(value);
    } else {
      args.flags[flag] = value;
    }
  }
  if (args.ddl.size() < 2) Die("need at least two --ddl files");
  return args;
}

// ---------------------------------------------------------------- oracle

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

int RunOracle(const Args& args) {
  const schema::SchemaSet set = ParseSources(ReadSources(args.ddl));
  const embed::HashedLexiconEncoder encoder;
  const scoping::SignatureSet sigs = scoping::BuildSignatures(set, encoder);

  perfbench::OracleInput input;
  input.rows = sigs.size();
  input.dims = sigs.signatures.cols();
  input.num_schemas = static_cast<int>(set.num_schemas());
  input.signatures.reserve(input.rows * input.dims);
  std::map<std::string, size_t> row_of;
  for (size_t r = 0; r < input.rows; ++r) {
    const double* row = sigs.signatures.RowPtr(r);
    input.signatures.insert(input.signatures.end(), row, row + input.dims);
    input.schema.push_back(sigs.refs[r].schema);
    input.is_table.push_back(sigs.refs[r].is_table());
    row_of[set.QualifiedName(sigs.refs[r])] = r;
  }

  std::vector<std::string> problems;
  std::vector<int> reported(input.rows, -1);
  std::set<std::pair<size_t, size_t>> reported_pairs;
  std::ifstream tsv(args.Get("--report-tsv", ""));
  if (!tsv) Die("cannot open --report-tsv");
  size_t element_lines = 0;
  for (std::string line; std::getline(tsv, line);) {
    const std::vector<std::string> f = SplitTabs(line);
    if (f[0] == "E" && f.size() == 4) {
      ++element_lines;
      auto it = row_of.find(f[1]);
      if (it == row_of.end() || reported[it->second] != -1) {
        problems.push_back("unknown or repeated element " + f[1]);
        continue;
      }
      if ((f[2] == "table") != input.is_table[it->second]) {
        problems.push_back("wrong kind for " + f[1]);
      }
      reported[it->second] = f[3] == "1" ? 1 : 0;
    } else if (f[0] == "L" && f.size() == 3) {
      auto a = row_of.find(f[1]);
      auto b = row_of.find(f[2]);
      if (a == row_of.end() || b == row_of.end()) {
        problems.push_back("linkage names an unknown element");
        continue;
      }
      reported_pairs.emplace(std::min(a->second, b->second),
                             std::max(a->second, b->second));
    } else {
      Die("malformed report line: " + line);
    }
  }
  if (element_lines != input.rows) {
    problems.push_back("report lists " + std::to_string(element_lines) +
                       " elements, the corpus has " +
                       std::to_string(input.rows));
  }

  const perfbench::KeepOracle keep = perfbench::ComputeKeep(input, kExplainedVariance);
  size_t keep_mismatch = 0;
  size_t keep_boundary = 0;
  std::vector<bool> mask(input.rows, false);
  for (size_t r = 0; r < input.rows; ++r) {
    mask[r] = reported[r] == 1;
    if (keep.verdicts[r] == perfbench::Verdict::kBoundary) {
      ++keep_boundary;
    } else if (reported[r] != static_cast<int>(keep.verdicts[r])) {
      if (keep_mismatch++ < 3) {
        problems.push_back("keep decision differs for " +
                           set.QualifiedName(sigs.refs[r]));
      }
    }
  }

  const perfbench::LinkageOracle links =
      perfbench::ComputeLinkages(input, mask, kSimThreshold);
  const std::set<std::pair<size_t, size_t>> expected(links.pairs.begin(),
                                                     links.pairs.end());
  const std::set<std::pair<size_t, size_t>> boundary(links.boundary.begin(),
                                                     links.boundary.end());
  size_t missing = 0;
  size_t extra = 0;
  for (const auto& pair : expected) missing += reported_pairs.count(pair) == 0;
  for (const auto& pair : reported_pairs) {
    extra += expected.count(pair) == 0 && boundary.count(pair) == 0;
  }
  if (missing > 0) problems.push_back(std::to_string(missing) + " linkages missing");
  if (extra > 0) problems.push_back(std::to_string(extra) + " linkages not expected");
  if (keep.ambiguous_models > 0) {
    problems.push_back(std::to_string(keep.ambiguous_models) +
                       " models sit on the explained-variance boundary");
  }

  std::printf(
      "{\"ok\": %s, \"elements\": %zu, \"keep_mismatch\": %zu, "
      "\"keep_boundary\": %zu, \"linkages\": %zu, \"linkage_missing\": %zu, "
      "\"linkage_extra\": %zu, \"linkage_boundary\": %zu, "
      "\"candidates\": %zu, \"problems\": [",
      problems.empty() ? "true" : "false", input.rows, keep_mismatch,
      keep_boundary, reported_pairs.size(), missing, extra,
      links.boundary.size(), links.candidates);
  for (size_t i = 0; i < problems.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", problems[i].c_str());
  }
  std::printf("]}\n");
  return 0;
}

// ---------------------------------------------------------------- layers

/// The fault-free in-memory transport, counting the payload bytes that
/// consumers fetch.
class CountingTransport : public exchange::ModelTransport {
 public:
  Status Publish(int publisher, std::string payload) override {
    return inner_.Publish(publisher, std::move(payload));
  }
  exchange::FetchResponse Fetch(int publisher, int consumer,
                                int attempt) const override {
    exchange::FetchResponse response = inner_.Fetch(publisher, consumer, attempt);
    fetched_bytes_ += response.payload.size();
    return response;
  }
  uint64_t fetched_bytes() const { return fetched_bytes_; }

 private:
  // A fault injector with the empty profile, as Pipeline::Run builds it.
  exchange::InMemoryTransport inner_{FaultInjector(FaultProfile{})};
  mutable std::atomic<uint64_t> fetched_bytes_{0};
};

/// Everything the operation of one pass produced.
struct OpOutput {
  schema::SchemaSet set;
  pipeline::PipelineRun run;
  std::vector<scoping::LocalModel> models;
  std::string report;
};

class LayerBench {
 public:
  explicit LayerBench(const Args& args)
      : mode_(args.Get("--mode", "serial")),
        base_(ReadSources(args.ddl)),
        variants_(ReadSources(args.variants)) {
    if (mode_ != "serial" && mode_ != "federated" && mode_ != "serve") {
      Die("unknown --mode " + mode_);
    }
    if (mode_ == "serve" && variants_.empty()) Die("serve mode needs --variant");
    const size_t threads = std::stoul(args.Get("--threads", "1"));
    if (threads != 1) pool_.emplace(threads);
    cache::ArtifactCacheOptions options;
    options.dir = args.Get("--work-dir", ".") + "/cache";
    cache_.emplace(Unwrap(cache::ArtifactCache::Open(std::move(options)),
                          "open cache"));
    options_fp_ = Fnv1a64(pipeline::SemanticOptionsString(pipeline::PipelineOptions{}));
    // A nonzero trace id makes the Chrome trace carry span and parent ids.
    trace_.set_trace_id(1);
  }

  /// Fills the work cache with the base corpus (untimed), so every hit
  /// measurement and the serve operation start from a warm cache.
  void FillCache() {
    const schema::SchemaSet set = ParseSources(base_);
    cache::PipelineCache memo(&*cache_, &encoder_, set, options_fp_);
    const scoping::SignatureSet sigs = Unwrap(memo.BuildSignatures(nullptr, nullptr), "fill");
    const auto models = Unwrap(memo.FitLocalModels(sigs, kExplainedVariance, nullptr, nullptr), "fill");
    const auto keep = Unwrap(memo.AssessAll(sigs, models), "fill");
    (void)Unwrap(memo.Match(sigs, keep, matching::SimMatcher(kSimThreshold)), "fill");
  }

  /// One repetition: the workload's operation under an "op" span, the
  /// remaining layer calls under an "extra" span, then the operation once
  /// more with span recording off, timed as a whole ("op.untraced_ms").
  std::string Pass(int pass) {
    values_.emplace_back();
    current_ = &values_.back();
    OpOutput out;
    {
      obs::ScopedSpan op(tracer_, "op");
      op.AddArg("pass", pass);
      Op(2 * pass, op.id(), out);
    }
    {
      obs::ScopedSpan extra(tracer_, "extra");
      extra.AddArg("pass", pass);
      Extras(extra.id(), out);
    }
    std::map<std::string, double> discarded;
    current_ = &discarded;
    tracer_ = nullptr;
    const auto started = std::chrono::steady_clock::now();
    OpOutput untraced;
    Op(2 * pass + 1, 0, untraced);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    tracer_ = &trace_;
    values_.back()["op.untraced_ms"] = ms;
    return out.report;
  }

  const obs::Tracer& trace() const { return trace_; }
  const std::vector<std::map<std::string, double>>& values() const { return values_; }

 private:
  ThreadPool* pool() { return pool_.has_value() ? &*pool_ : nullptr; }
  std::map<std::string, double>& value() { return *current_; }

  /// The workload's operation; `request` picks the serve variant.
  void Op(int request, uint64_t parent, OpOutput& out) {
    if (mode_ == "serve") {
      ServeOp(request, parent, out);
    } else {
      BatchOp(parent, out);
    }
  }

  void Payloads(uint64_t parent, const scoping::SignatureSet* sigs,
                const std::vector<scoping::LocalModel>* models,
                const std::vector<bool>* keep) {
    obs::ScopedSpan span(tracer_, "scoping.checkpoint_payload");
    span.set_parent(parent);
    double bytes = 0.0;
    if (sigs != nullptr) bytes += scoping::SerializeSignatureSet(*sigs).size();
    if (models != nullptr) bytes += scoping::SerializeLocalModelSet(*models).size();
    if (keep != nullptr) bytes += scoping::SerializeKeepMask(*keep).size();
    value()["scoping.checkpoint_payload_bytes"] += bytes;
  }

  void Finish(uint64_t parent, OpOutput& out) {
    pipeline::PipelineRun& run = out.run;
    {
      obs::ScopedSpan span(tracer_, "scoping.streamline");
      span.set_parent(parent);
      run.streamlined = scoping::BuildStreamlinedSchemas(out.set, run.signatures, run.keep);
    }
    run.phases_completed = {"signatures", "local_models", "keep_mask",
                            "streamline", "match"};
    {
      obs::ScopedSpan span(tracer_, "pipeline.report");
      span.set_parent(parent);
      out.report = pipeline::RunToJson(run, out.set);
    }
    value()["pipeline.report_bytes"] = out.report.size();
    value()["matching.linkages"] = run.linkages.size();
  }

  /// `colscope match` over the base corpus, as Pipeline::Run performs it
  /// without a cache: serial, or on the pool with the keep-all exchange.
  void BatchOp(uint64_t op, OpOutput& out) {
    pipeline::PipelineRun& run = out.run;
    {
      obs::ScopedSpan span(tracer_, "schema.parse");
      span.set_parent(op);
      out.set = ParseSources(base_);
    }
    {
      obs::ScopedSpan span(tracer_, "embed.signatures");
      span.set_parent(op);
      const embed::HashedLexiconEncoder encoder;
      run.signatures = scoping::BuildSignatures(out.set, encoder, {}, nullptr, pool());
    }
    Payloads(op, &run.signatures, nullptr, nullptr);
    const size_t num_schemas = out.set.num_schemas();
    {
      obs::ScopedSpan span(tracer_, "scoping.fit");
      span.set_parent(op);
      out.models = Unwrap(
          pool() != nullptr
              ? scoping::FitLocalModelsOnPool(run.signatures, num_schemas,
                                              kExplainedVariance, *pool())
              : scoping::FitLocalModels(run.signatures, num_schemas,
                                        kExplainedVariance),
          "fit");
    }
    Payloads(op, nullptr, &out.models, nullptr);
    if (mode_ == "federated") {
      run.keep = Exchange(op, out);
    } else {
      obs::ScopedSpan span(tracer_, "scoping.assess");
      span.set_parent(op);
      run.keep = scoping::AssessAll(run.signatures, num_schemas, out.models);
    }
    Payloads(op, nullptr, nullptr, &run.keep);
    {
      obs::ScopedSpan span(tracer_, "matching.sim");
      span.set_parent(op);
      run.linkages = matching::SimMatcher(kSimThreshold, pool()).Match(run.signatures, run.keep);
    }
    Finish(op, out);
  }

  /// Fault-free keep-all model exchange followed by the sparse
  /// assessment; records the degradation report the CLI prints.
  std::vector<bool> Exchange(uint64_t parent, OpOutput& out) {
    const size_t num_schemas = out.set.num_schemas();
    CountingTransport transport;
    exchange::ExchangeResult exchanged;
    {
      obs::ScopedSpan span(tracer_, "exchange");
      span.set_parent(parent);
      exchanged = Unwrap(exchange::ExchangeLocalModels(out.models, transport,
                                                       exchange::RetryPolicy{}),
                         "exchange");
    }
    value()["exchange.bytes_fetched"] = transport.fetched_bytes();
    scoping::DegradedOptions degraded;
    degraded.policy = scoping::DegradedPolicy::kKeepAll;
    std::vector<bool> keep;
    {
      obs::ScopedSpan span(tracer_, "scoping.assess_sparse");
      span.set_parent(parent);
      keep = Unwrap(scoping::AssessAllSparse(out.run.signatures, num_schemas,
                                             exchanged.arrived, degraded),
                    "assess sparse");
    }
    {
      out.run.degradation = exchange::BuildDegradationReport(
          exchanged, scoping::DegradedPolicyToString(degraded.policy), num_schemas);
      exchange::ExchangeConfigEcho echo;
      echo.transport = "in_memory";
      echo.policy = scoping::DegradedPolicyToString(degraded.policy);
      echo.quorum = degraded.quorum;
      out.run.exchange_config = std::move(echo);
    }
    return keep;
  }

  /// One request to the resident server, as the daemon runs it: request
  /// codec, then the cached pipeline over the base corpus with one
  /// source replaced by a never-seen variant.
  void ServeOp(int index, uint64_t op, OpOutput& out) {
    server::ScopeRequest request;
    for (size_t i = 0; i < base_.size(); ++i) {
      const Source& source = i == index % base_.size()
                                 ? variants_[index % variants_.size()]
                                 : base_[i];
      request.schemas.push_back({"ddl", source.name, source.text});
    }
    std::vector<Source> decoded_sources;
    {
      obs::ScopedSpan span(tracer_, "server.request_codec");
      span.set_parent(op);
      const std::string payload = server::EncodeScopeRequest(request);
      value()["server.request_bytes"] = payload.size();
      const server::ScopeRequest decoded =
          Unwrap(server::DecodeScopeRequest(payload), "decode request");
      for (const auto& schema : decoded.schemas) {
        decoded_sources.push_back({schema.name, schema.text});
      }
    }
    pipeline::PipelineRun& run = out.run;
    {
      obs::ScopedSpan span(tracer_, "schema.parse");
      span.set_parent(op);
      out.set = ParseSources(decoded_sources);
    }
    cache::PipelineCache memo(&*cache_, &encoder_, out.set, options_fp_);
    {
      obs::ScopedSpan span(tracer_, "cache.signatures");
      span.set_parent(op);
      run.signatures = Unwrap(memo.BuildSignatures(nullptr, nullptr), "cached signatures");
    }
    Payloads(op, &run.signatures, nullptr, nullptr);
    {
      obs::ScopedSpan span(tracer_, "cache.models");
      span.set_parent(op);
      out.models = Unwrap(memo.FitLocalModels(run.signatures, kExplainedVariance,
                                              nullptr, nullptr),
                          "cached fit");
    }
    Payloads(op, nullptr, &out.models, nullptr);
    {
      obs::ScopedSpan span(tracer_, "cache.keep");
      span.set_parent(op);
      run.keep = Unwrap(memo.AssessAll(run.signatures, out.models), "cached assess");
    }
    Payloads(op, nullptr, nullptr, &run.keep);
    {
      obs::ScopedSpan span(tracer_, "cache.simblocks");
      span.set_parent(op);
      run.linkages = Unwrap(memo.Match(run.signatures, run.keep,
                                       matching::SimMatcher(kSimThreshold)),
                            "cached match");
    }
    Finish(op, out);
    value()["server.response_bytes"] = out.report.size();
  }

  /// Layer calls the workload's operation does not make, so that every
  /// layer metric exists on every workload's corpus.
  void Extras(uint64_t extra, OpOutput& out) {
    const pipeline::PipelineRun& run = out.run;
    const size_t num_schemas = out.set.num_schemas();
    value()["matching.pairs_compared"] =
        matching::SimMatcher::ComparisonCount(run.signatures, run.keep);
    if (pool() != nullptr) {
      // The op made these calls on the pool, but a cache hit is a serial
      // read, so the recompute it stands in for is timed serially here.
      {
        obs::ScopedSpan span(tracer_, "cache.signatures_recompute");
        span.set_parent(extra);
        const embed::HashedLexiconEncoder encoder;
        (void)scoping::BuildSignatures(out.set, encoder);
      }
      {
        obs::ScopedSpan span(tracer_, "cache.models_recompute");
        span.set_parent(extra);
        (void)Unwrap(scoping::FitLocalModels(run.signatures, num_schemas, kExplainedVariance), "fit");
      }
      {
        obs::ScopedSpan span(tracer_, "cache.simblocks_recompute");
        span.set_parent(extra);
        (void)matching::SimMatcher(kSimThreshold).Match(run.signatures, run.keep);
      }
    }
    if (mode_ == "serve") {
      {
        obs::ScopedSpan span(tracer_, "embed.signatures");
        span.set_parent(extra);
        const embed::HashedLexiconEncoder encoder;
        (void)scoping::BuildSignatures(out.set, encoder);
      }
      {
        obs::ScopedSpan span(tracer_, "scoping.fit");
        span.set_parent(extra);
        (void)Unwrap(scoping::FitLocalModels(run.signatures, num_schemas, kExplainedVariance), "fit");
      }
      {
        obs::ScopedSpan span(tracer_, "matching.sim");
        span.set_parent(extra);
        (void)matching::SimMatcher(kSimThreshold).Match(run.signatures, run.keep);
      }
    }
    if (mode_ == "federated") {
      obs::ScopedSpan span(tracer_, "scoping.assess");
      span.set_parent(extra);
      (void)scoping::AssessAll(run.signatures, num_schemas, out.models);
    } else {
      (void)Exchange(extra, out);
      if (mode_ == "serve") {
        obs::ScopedSpan span(tracer_, "scoping.assess");
        span.set_parent(extra);
        (void)scoping::AssessAll(run.signatures, num_schemas, out.models);
      }
    }

    // The model codec as the exchange uses it: every model encoded once,
    // every payload decoded once per consuming schema.
    std::vector<std::string> payloads;
    {
      obs::ScopedSpan span(tracer_, "exchange.model_encode");
      span.set_parent(extra);
      for (const auto& model : out.models) payloads.push_back(scoping::SerializeLocalModel(model));
    }
    {
      obs::ScopedSpan span(tracer_, "exchange.model_decode");
      span.set_parent(extra);
      for (size_t consumer = 0; consumer < payloads.size(); ++consumer) {
        for (size_t publisher = 0; publisher < payloads.size(); ++publisher) {
          if (publisher == consumer) continue;
          (void)Unwrap(scoping::DeserializeLocalModel(payloads[publisher]), "decode model");
        }
      }
    }

    // Every artifact kind read back through PipelineCache on the warm
    // cache of the base corpus.
    const schema::SchemaSet base = ParseSources(base_);
    cache::PipelineCache memo(&*cache_, &encoder_, base, options_fp_);
    scoping::SignatureSet sigs;
    std::vector<scoping::LocalModel> models;
    std::vector<bool> keep;
    {
      obs::ScopedSpan span(tracer_, "cache.signatures_hit");
      span.set_parent(extra);
      sigs = Unwrap(memo.BuildSignatures(nullptr, nullptr), "signature hit");
    }
    {
      obs::ScopedSpan span(tracer_, "cache.models_hit");
      span.set_parent(extra);
      models = Unwrap(memo.FitLocalModels(sigs, kExplainedVariance, nullptr, nullptr), "model hit");
    }
    {
      obs::ScopedSpan span(tracer_, "cache.keep_hit");
      span.set_parent(extra);
      keep = Unwrap(memo.AssessAll(sigs, models), "keep hit");
    }
    {
      obs::ScopedSpan span(tracer_, "cache.simblocks_hit");
      span.set_parent(extra);
      (void)Unwrap(memo.Match(sigs, keep, matching::SimMatcher(kSimThreshold)), "simblock hit");
    }

    if (mode_ != "serve") {
      server::ScopeRequest request;
      for (const Source& source : base_) request.schemas.push_back({"ddl", source.name, source.text});
      obs::ScopedSpan span(tracer_, "server.request_codec");
      span.set_parent(extra);
      const std::string payload = server::EncodeScopeRequest(request);
      value()["server.request_bytes"] = payload.size();
      (void)Unwrap(server::DecodeScopeRequest(payload), "decode request");
      value()["server.response_bytes"] = out.report.size();
    }
  }

  std::string mode_;
  std::vector<Source> base_;
  std::vector<Source> variants_;
  std::optional<ThreadPool> pool_;
  std::optional<cache::ArtifactCache> cache_;
  const embed::HashedLexiconEncoder encoder_;  // The daemon's resident encoder.
  uint64_t options_fp_ = 0;
  obs::SystemTraceClock clock_;
  obs::Tracer trace_{&clock_};
  obs::Tracer* tracer_ = &trace_;  // Null while the untraced repetition runs.
  std::vector<std::map<std::string, double>> values_;
  std::map<std::string, double>* current_ = nullptr;
};

/// The uncached layer call each cached artifact kind stands in for.
const std::map<std::string, std::string> kRecomputeLayer = {
    {"signatures", "embed.signatures"},
    {"models", "scoping.fit"},
    {"keep", "scoping.assess"},
    {"simblocks", "matching.sim"},
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int RunLayers(const Args& args) {
  const double seconds = std::stod(args.Get("--seconds", "10"));
  LayerBench bench(args);
  bench.FillCache();
  const auto started = std::chrono::steady_clock::now();
  int passes = 0;
  do {
    const std::string report = bench.Pass(passes);
    if (passes == 0 && args.flags.count("--report-out") != 0) {
      std::ofstream(args.Get("--report-out", "")) << report << '\n';
    }
    ++passes;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
               .count() < seconds);

  // Per pass: each span name's total time, split by the root it sits
  // under, plus the recorded counts. Every span is a root ("op" or
  // "extra", carrying the pass number) or a direct child of one.
  std::vector<std::map<std::string, double>> per_pass(bench.values());
  const std::vector<obs::TraceEvent> events = bench.trace().Events();
  std::map<uint64_t, const obs::TraceEvent*> roots;
  for (const auto& event : events) {
    if (event.parent_span_id == 0) roots[event.span_id] = &event;
  }
  for (const auto& event : events) {
    const double ms = event.dur_us / 1000.0;
    const bool is_root = event.parent_span_id == 0;
    const obs::TraceEvent& root = is_root ? event : *roots.at(event.parent_span_id);
    auto& pass = per_pass[root.args.at(0).second];
    if (is_root) {
      pass[event.name + ".root_ms"] += ms;
    } else {
      pass[event.name + "_ms"] += ms;
      if (root.name == "op") pass["op.layers_ms"] += ms;
    }
  }
  // Without a pool the op's own layer calls are the serial recompute a
  // cache hit saves; with one, Extras timed the serial calls apart.
  for (auto& pass : per_pass) {
    for (const auto& [kind, layer] : kRecomputeLayer) {
      const std::string name = "cache." + kind + "_recompute_ms";
      if (pass.count(name) == 0) pass[name] = pass.at(layer + "_ms");
    }
  }
  std::map<std::string, std::vector<double>> series;
  for (const auto& pass : per_pass) {
    for (const auto& [name, value] : pass) series[name].push_back(value);
  }
  if (args.flags.count("--trace-out") != 0) {
    std::ofstream(args.Get("--trace-out", "")) << bench.trace().ToChromeJson();
  }
  std::printf("{\"passes\": %d, \"metrics\": {", passes);
  bool first = true;
  for (const auto& [name, values] : series) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), Median(values));
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.command == "oracle") return RunOracle(args);
  if (args.command == "layers") return RunLayers(args);
  Die("unknown command " + args.command);
}
