#include "net/batch.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace ftmao {

RecipientPartition partition_recipients(
    std::span<const RecipientClass> declared, std::size_t replicas,
    std::size_t recipients) {
  FTMAO_EXPECTS(declared.size() == replicas * recipients);
  const auto decl = [&](std::size_t r, std::size_t j) {
    return declared[r * recipients + j];
  };
  RecipientPartition p;
  p.per_message.assign(replicas, 0);
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto row = declared.subspan(r * recipients, recipients);
    if (std::find(row.begin(), row.end(), kPerMessage) != row.end()) {
      p.per_message[r] = 1;
      p.any_per_message = true;
    }
  }

  const auto same_class = [&](std::size_t a, std::size_t b) {
    if (p.any_per_message) return a == b;
    for (std::size_t r = 0; r < replicas; ++r)
      if (decl(r, a) != decl(r, b)) return false;
    return true;
  };
  p.class_of.resize(recipients);
  for (std::size_t j = 0; j < recipients; ++j) {
    std::size_t c = 0;
    while (c < p.first.size() && !same_class(p.first[c], j)) ++c;
    if (c == p.first.size())
      p.first.push_back(static_cast<std::uint32_t>(j));
    p.class_of[j] = static_cast<std::uint32_t>(c);
  }
  p.classes = p.first.size();

  // The first class holding a recipient of the same declared class. Its
  // first recipient is that declared class's first recipient, because
  // classes are numbered by first recipient.
  p.source.resize(replicas * p.classes);
  for (std::size_t r = 0; r < replicas; ++r) {
    for (std::size_t c = 0; c < p.classes; ++c) {
      std::size_t s = c;
      if (!p.per_message[r]) {
        s = 0;
        while (decl(r, p.first[s]) != decl(r, p.first[c])) ++s;
      }
      p.source[r * p.classes + c] = static_cast<std::uint32_t>(s);
    }
  }
  return p;
}

}  // namespace ftmao
