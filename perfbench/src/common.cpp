#include "common.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void spawned_setup(const std::string& name, int processes, int reps,
                   std::vector<double>& out) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) throw std::runtime_error("set-up: cannot find this program");
  self[len] = '\0';
  for (int i = 0; i < processes; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe() failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string a0 = self;
    std::string a1 = "--setup";
    std::string a2 = name;
    std::string a3 = "--reps";
    std::string a4 = std::to_string(reps);
    char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data(),
                    nullptr};
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, self, &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    std::string text;
    char buf[256];
    for (ssize_t n = 0; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
      text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    if (rc == 0) waitpid(pid, &status, 0);
    std::istringstream in(text);
    std::vector<double> got;
    for (double x = 0; in >> x;) got.push_back(x);
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        got.size() != static_cast<std::size_t>(reps)) {
      throw std::runtime_error("set-up process for '" + name + "' failed");
    }
    out.insert(out.end(), got.begin(), got.end());
  }
}

int run_setup_child(void (*work)(), int reps) {
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    work();
    std::printf("%.9g\n", seconds_since(t0));
  }
  return 0;
}

double self_peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this one (the launching interpreter).
  return pid_peak_rss_mb(getpid());
}

double pid_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(v[i]);
  }
  return out + "]";
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = json;
      return *this;
    }
  }
  fields_.emplace_back(key, json);
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::num(const std::string& key, long value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

std::string JsonObject::render() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out += ",";
    first = false;
    out += json_string(k) + ":" + v;
  }
  return out + "}";
}

}  // namespace pb
