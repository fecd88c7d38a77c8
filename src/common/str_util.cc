#include "common/str_util.h"

namespace gmdj {

std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out.append(part);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (true) {
    const size_t pos = s.find(sep, begin);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(begin));
      return out;
    }
    out.emplace_back(s.substr(begin, pos - begin));
    begin = pos + 1;
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string PadLeft(std::string_view s, size_t width) {
  std::string out;
  if (s.size() < width) out.assign(width - s.size(), ' ');
  out += s;
  return out;
}

std::string PadRight(std::string_view s, size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace gmdj
