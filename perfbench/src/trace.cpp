#include "trace.hpp"

#include <cstdio>
#include <type_traits>
#include <variant>

#include "stats.hpp"

namespace perfbench {

namespace {
thread_local Tracer* t_tracer = nullptr;
}  // namespace

std::string message_type(const shadow::Bytes& wire) {
  if (wire.empty()) return "Empty";
  return shadow::proto::message_type_name(
      static_cast<shadow::proto::MessageType>(wire[0]));
}

int Tracer::open(std::string name, std::string op) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  if (op.empty() && parent >= 0) op = spans_[parent].op;
  SpanRecord span;
  span.name = std::move(name);
  span.op = std::move(op);
  span.parent = parent;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  SpanRecord& span = spans_[index];
  span.end_ns = now_ns();
  if (span.parent >= 0) spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

Tracer& TraceSink::bind_thread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  tracers_.emplace_back(name);
  t_tracer = &tracers_.back();
  return tracers_.back();
}

void TraceSink::unbind_thread() { t_tracer = nullptr; }

Tracer* TraceSink::current() { return t_tracer; }

std::vector<const Tracer*> TraceSink::tracers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Tracer*> out;
  for (const auto& t : tracers_) out.push_back(&t);
  return out;
}

bool TraceSink::write_jsonl(const std::string& path,
                            const std::string& round) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (const Tracer* t : tracers()) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "{\"round\":%s,\"thread\":%s,\"id\":%zu,\"parent\":%d,"
                   "\"name\":%s,\"op\":%s,\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"self_us\":%s}\n",
                   json_string(round).c_str(),
                   json_string(t->thread_name()).c_str(), i, s.parent,
                   json_string(s.name).c_str(), json_string(s.op).c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   json_number(s.self_us()).c_str());
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(std::string name, std::string op)
    : tracer_(TraceSink::current()) {
  if (tracer_ != nullptr) index_ = tracer_->open(std::move(name), std::move(op));
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void ScopedSpan::set_op(std::string op) {
  if (tracer_ != nullptr) tracer_->set_op(index_, std::move(op));
}

std::string op_of(const std::string& client, const shadow::proto::Message& m) {
  namespace proto = shadow::proto;
  auto edit = [&](const shadow::naming::GlobalFileId& file, shadow::u64 v) {
    return "e/" + client + "/" + file.key() + "/" + std::to_string(v);
  };
  auto job = [&](shadow::u64 token) {
    return "j/" + client + "/" + std::to_string(token);
  };
  return std::visit(
      [&](const auto& msg) -> std::string {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, proto::NotifyNewVersion>) {
          return edit(msg.file, msg.version);
        } else if constexpr (std::is_same_v<T, proto::PullRequest>) {
          return edit(msg.file, msg.want_version);
        } else if constexpr (std::is_same_v<T, proto::Update>) {
          return edit(msg.file, msg.new_version);
        } else if constexpr (std::is_same_v<T, proto::UpdateAck>) {
          return edit(msg.file, msg.version);
        } else if constexpr (std::is_same_v<T, proto::SubmitJob> ||
                             std::is_same_v<T, proto::SubmitReply> ||
                             std::is_same_v<T, proto::JobOutput>) {
          return job(msg.client_job_token);
        } else {
          return std::string();
        }
      },
      m);
}

TimedTransport::TimedTransport(std::unique_ptr<shadow::net::TcpTransport> inner,
                               Side side, std::string client)
    : inner_(std::move(inner)), side_(side), client_(std::move(client)) {}

shadow::Status TimedTransport::send(shadow::Bytes message) {
  if (capture_) captured_.push_back(message);
  std::string op;
  if (auto decoded = shadow::proto::decode_message(message); decoded.ok()) {
    const auto& m = decoded.value();
    op = op_of(client_, m);
    if (const auto* out = std::get_if<shadow::proto::JobOutput>(&m)) {
      token_of_job_[out->job_id] = out->client_job_token;
    }
    if (side_ == Side::kServer) {
      if (std::holds_alternative<shadow::proto::UpdateAck>(m)) {
        auto it = update_in_ns_.find(op);
        if (it != update_in_ns_.end()) {
          ack_wait_us_.push_back((now_ns() - it->second) / 1e3);
          update_in_ns_.erase(it);
        }
      }
      if (std::holds_alternative<shadow::proto::JobOutput>(m)) {
        auto it = submit_in_ns_.find(op);
        if (it != submit_in_ns_.end()) {
          job_residence_us_[op] = (now_ns() - it->second) / 1e3;
          submit_in_ns_.erase(it);
        }
      }
      if (std::holds_alternative<shadow::proto::UpdateAck>(m) ||
          std::holds_alternative<shadow::proto::SubmitReply>(m) ||
          std::holds_alternative<shadow::proto::JobOutput>(m)) {
        ++gated_replies_;
      }
    }
  }
  ScopedSpan span(side_ == Side::kClient ? "net.send.client" : "net.send.server",
                  op);
  return inner_->send(std::move(message));
}

void TimedTransport::set_receiver(ReceiveFn fn) {
  if (!fn) {
    inner_->set_receiver(nullptr);
    return;
  }
  // Shared so a handler that installs a new receiver (the sharded lobby
  // does, on Hello) cannot destroy the one still running.
  auto shared = std::make_shared<ReceiveFn>(std::move(fn));
  inner_->set_receiver([this, shared](shadow::Bytes message) {
    const std::shared_ptr<ReceiveFn> keep = shared;
    if (capture_) captured_.push_back(message);
    std::string op;
    if (auto decoded = shadow::proto::decode_message(message); decoded.ok()) {
      const auto& m = decoded.value();
      op = op_of(client_, m);
      if (const auto* ack = std::get_if<shadow::proto::JobOutputAck>(&m)) {
        auto it = token_of_job_.find(ack->job_id);
        if (it != token_of_job_.end()) {
          op = "j/" + client_ + "/" + std::to_string(it->second);
        }
      }
      if (side_ == Side::kServer &&
          std::holds_alternative<shadow::proto::Update>(m)) {
        update_in_ns_[op] = now_ns();
      }
      if (side_ == Side::kServer &&
          std::holds_alternative<shadow::proto::SubmitJob>(m)) {
        submit_in_ns_.emplace(op, now_ns());
      }
    }
    ScopedSpan span((side_ == Side::kClient ? "client." : "server.") +
                        message_type(message),
                    op);
    (*keep)(std::move(message));
  });
}

namespace {
class TimedFile final : public shadow::persist::StorageFile {
 public:
  TimedFile(std::unique_ptr<shadow::persist::StorageFile> inner,
            TimedDir::Counts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  shadow::Status append(const shadow::Bytes& data) override {
    ScopedSpan span("persist.append");
    ++counts_->appends;
    counts_->append_bytes += data.size();
    return inner_->append(data);
  }
  shadow::Status sync() override {
    ScopedSpan span("persist.sync");
    ++counts_->syncs;
    return inner_->sync();
  }
  shadow::u64 size() const override { return inner_->size(); }

 private:
  std::unique_ptr<shadow::persist::StorageFile> inner_;
  TimedDir::Counts* counts_;
};
}  // namespace

shadow::Result<std::unique_ptr<shadow::persist::StorageFile>>
TimedDir::open_append(const std::string& name) {
  auto file = inner_->open_append(name);
  if (!file.ok()) return file.error();
  return std::unique_ptr<shadow::persist::StorageFile>(
      std::make_unique<TimedFile>(std::move(file).take(), &counts_));
}

shadow::Status TimedDir::write_atomic(const std::string& name,
                                      const shadow::Bytes& data) {
  ScopedSpan span("persist.write_atomic");
  return inner_->write_atomic(name, data);
}

}  // namespace perfbench
