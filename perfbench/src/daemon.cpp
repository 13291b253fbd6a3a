#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {
using shadow::Error;
using shadow::ErrorCode;
using shadow::Status;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
}  // namespace

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_own_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  return static_cast<bool>(out);
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

Status Daemon::start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path, double timeout_s) {
  log_path_ = log_path;
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Error{ErrorCode::kIoError, "cannot create " + log_path};
  }
  std::vector<std::string> argv_storage = {binary, "--port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Error{ErrorCode::kIoError, "fork failed"};
  }
  if (pid == 0) {
    // The daemon never outlives the benchmark, however the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  const auto t0 = std::chrono::steady_clock::now();
  const std::string marker = "listening on 127.0.0.1:";
  while (seconds_since(t0) < timeout_s) {
    const std::string log = read_all(log_path);
    if (auto at = log.find(marker); at != std::string::npos) {
      const auto digits = log.substr(at + marker.size());
      port_ = static_cast<unsigned>(std::strtoul(digits.c_str(), nullptr, 10));
      if (port_ != 0) return Status();
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Error{ErrorCode::kIoError,
                   "shadowd exited during start-up: " + read_all(log_path)};
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return Error{ErrorCode::kIoError, "shadowd did not report a port"};
}

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? vm_hwm_mb(std::to_string(pid_)) : 0.0;
}

Status Daemon::stop(double timeout_s) {
  if (pid_ <= 0) return Error{ErrorCode::kInvalidArgument, "not running"};
  ::kill(pid_, SIGTERM);
  const auto t0 = std::chrono::steady_clock::now();
  int status = 0;
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         seconds_since(t0) < timeout_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (done != pid_) {
    return Error{ErrorCode::kIoError, "shadowd did not exit after SIGTERM"};
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Error{ErrorCode::kInternal,
                 "shadowd exited abnormally (status " + std::to_string(status) +
                     ")"};
  }
  if (read_all(log_path_).find("drained cleanly") == std::string::npos) {
    return Error{ErrorCode::kInternal, "shadowd did not report a clean drain"};
  }
  return Status();
}

}  // namespace perfbench
