// Fixture: trips every determinism sub-rule. Never compiled — parsed
// by test_analyze.cc through the dlvp_analyze library.
#include <cstdlib>
#include <ctime>
#include <map>
#include <unordered_map>

struct DetBad
{
    std::unordered_map<int, int> table_;
    std::map<int *, int> byPointer_; // pointer-keyed ordered map

    int
    roll()
    {
        std::srand(static_cast<unsigned>(std::time(nullptr)));
        return std::rand();
    }

    int
    sum() const
    {
        int total = 0;
        for (const auto &kv : table_) // unordered iteration
            total += kv.second;
        return total;
    }

    // Timing a slice of work with a clock that may alias wall
    // time.
    long
    timedSlice()
    {
        auto t0 = std::chrono::high_resolution_clock::now();
        return t0.time_since_epoch().count();
    }
};
