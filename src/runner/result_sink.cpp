#include "runner/result_sink.h"

#include "common/geometry.h"
#include "common/jsonl.h"

namespace cfds::runner {

std::string to_jsonl(const PointRecord& record, bool include_wall_time) {
  std::string line = "{\"experiment\":\"";
  jsonl::append_escaped(line, record.experiment);
  jsonl::append(
      line,
      "\",\"kind\":\"%s\",\"n\":%d,\"p\":%.17g,\"range\":%.17g,"
      "\"trials\":%lld,\"successes\":%lld,\"mean\":%.17g,\"ci99\":%.17g,"
      "\"wilson_lo\":%.17g,\"wilson_hi\":%.17g,\"seed\":%llu,\"shards\":%ld",
      estimator_kind_name(record.kind), record.point.n, record.point.p,
      kPaperRange, static_cast<long long>(record.trials),
      static_cast<long long>(record.successes), record.mean, record.ci99,
      record.wilson.lo, record.wilson.hi,
      static_cast<unsigned long long>(record.seed), record.shards);
  if (include_wall_time) {
    jsonl::append(line, ",\"wall_ms\":%.3f", record.wall_ms);
  }
  line += "}";
  return line;
}

std::string to_jsonl(const BenchRecord& record) {
  std::string line = "{\"bench\":\"";
  jsonl::append_escaped(line, record.bench);
  line += "\",\"metric\":\"";
  jsonl::append_escaped(line, record.metric);
  jsonl::append(line, "\",\"n\":%d,\"value\":%.6g,\"label\":\"", record.n,
                record.value);
  jsonl::append_escaped(line, record.label);
  line += "\"}";
  return line;
}

JsonlResultSink::JsonlResultSink(const std::string& path,
                                 bool include_wall_time)
    : include_wall_time_(include_wall_time) {
  if (path == "-") {
    file_ = stdout;
  } else {
    file_ = std::fopen(path.c_str(), "w");
    owns_file_ = true;
  }
}

JsonlResultSink::~JsonlResultSink() {
  if (file_ == nullptr) return;
  if (owns_file_) {
    std::fclose(file_);
  } else {
    std::fflush(file_);
  }
}

void JsonlResultSink::write(const PointRecord& record) {
  if (file_ == nullptr) return;
  const std::string line = to_jsonl(record, include_wall_time_);
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
}

void JsonlResultSink::write(const BenchRecord& record) {
  if (file_ == nullptr) return;
  const std::string line = to_jsonl(record);
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
}

}  // namespace cfds::runner
