#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::uint64_t
wmImage(const psm::ops5::WorkingMemory &wm)
{
    std::vector<const psm::ops5::Wme *> live = wm.liveElements();
    std::sort(live.begin(), live.end(),
              [](const psm::ops5::Wme *a, const psm::ops5::Wme *b) {
                  return a->timeTag() < b->timeTag();
              });
    Digest d;
    d.add(live.size());
    for (const psm::ops5::Wme *w : live) {
        d.add(w->timeTag());
        d.add(w->className());
        d.add(static_cast<std::uint64_t>(w->fieldCount()));
        for (int i = 0; i < w->fieldCount(); ++i)
            d.add(w->field(i).hash());
    }
    return d.value();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
filesystemOf(const std::string &path)
{
    struct statfs st{};
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0x01021994UL: return "tmpfs";
      case 0xEF53UL: return "ext4";
      case 0x794C7630UL: return "overlayfs";
      case 0x58465342UL: return "xfs";
      case 0x9123683EUL: return "btrfs";
      case 0x6969UL: return "nfs";
      case 0x65735546UL: return "fuse";
      default: {
          char buf[32];
          std::snprintf(buf, sizeof buf, "0x%lx",
                        static_cast<unsigned long>(st.f_type));
          return buf;
      }
    }
}

} // namespace perfbench
