#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace e2e {

using cfq::Status;

Status Daemon::Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path) {
  if (running()) return Status::Internal("daemon already running");
  int out[2];
  if (pipe(out) != 0) return Status::Internal("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(out[0]);
    close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                         0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    std::vector<std::string> argv_storage = {binary, "--port=0"};
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  pid_ = pid;

  // Read the "listening on host:port" line.
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{out[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    char buf[256];
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  close(out[0]);
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    Kill();
    return Status::Internal("daemon did not start: '" + line + "'");
  }
  port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return Status::Ok();
}

double Daemon::PeakRssMb() const {
  if (!running()) return 0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

int Daemon::Wait(double timeout_s) {
  if (!running()) return 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return -1;
}

void Daemon::Kill() {
  if (!running()) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

}  // namespace e2e
