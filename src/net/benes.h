/**
 * @file
 * Benes rearrangeable non-blocking network (paper Sec. 4.1, Fig. 6a).
 *
 * A Benes network over n = 2^k terminals has 2k-1 stages of n/2
 * two-by-two crossbar switches and can realize *every* permutation
 * of inputs to outputs without internal blocking (Benes 1962).  The
 * Marionette control plane uses it as the permutation core of the
 * CS-Benes control network because it needs far fewer switches than
 * a crossbar (n log n vs n^2).
 *
 * This implementation provides the classic recursive looping
 * (Waksman) routing algorithm and a functional apply() so property
 * tests can verify conflict-freedom for arbitrary permutations.
 */

#ifndef MARIONETTE_NET_BENES_H
#define MARIONETTE_NET_BENES_H

#include <vector>

#include "sim/types.h"

namespace marionette
{

/**
 * Switch settings for one routed configuration of a Benes network.
 * settings[stage][row] == true means the 2x2 switch at that position
 * crosses its inputs.
 */
struct BenesRouting
{
    std::vector<std::vector<bool>> settings;
};

/** A Benes network over a power-of-two number of terminals. */
class BenesNetwork
{
  public:
    /** @param n terminal count; must be a power of two >= 2. */
    explicit BenesNetwork(int n);

    int numTerminals() const { return n_; }

    /** Number of switch stages: 2*log2(n) - 1. */
    int numStages() const { return stages_; }

    /** Total 2x2 switches in the fabric. */
    int totalSwitches() const { return stages_ * (n_ / 2); }

    /**
     * Route a (possibly partial) permutation.
     *
     * @param perm perm[i] is the output terminal for input i, or -1
     *             when input i is unused.  Used outputs must be
     *             distinct.
     * @return switch settings realizing the permutation.
     */
    BenesRouting route(const std::vector<int> &perm) const;

    /**
     * Push values through the switched fabric.
     *
     * @param routing settings produced by route().
     * @param inputs  one value per input terminal.
     * @return the values observed at each output terminal.
     */
    std::vector<Word> apply(const BenesRouting &routing,
                            const std::vector<Word> &inputs) const;

  private:
    void routeRec(const std::vector<int> &perm, int stage_lo,
                  int stage_hi, int row_base,
                  BenesRouting &routing) const;

    std::vector<Word> applyRec(const BenesRouting &routing,
                               const std::vector<Word> &inputs,
                               int stage_lo, int stage_hi,
                               int row_base) const;

    int n_;
    int stages_;
};

} // namespace marionette

#endif // MARIONETTE_NET_BENES_H
