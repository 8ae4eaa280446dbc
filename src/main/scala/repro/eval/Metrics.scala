package repro.eval

/** Ranking-comparison metrics used in §4.3 (Figures 7 and 8): precision@k of
  * the sampled skyline vs the exact one, Kendall-Tau distance and nDCG of the
  * sampled candidate ranking vs the exact ranking.
  */
object Metrics {

  /** |top-k(pred) ∩ top-k(truth)| / k (k clipped to truth size). */
  def precisionAtK[T](truth: Seq[T], pred: Seq[T], k: Int): Double = {
    val kk = math.min(k, math.max(truth.size, 1))
    if (truth.isEmpty) return if (pred.isEmpty) 1.0 else 0.0
    val t = truth.take(kk).toSet
    val p = pred.take(kk).toSet
    t.intersect(p).size.toDouble / kk
  }

  /** Raw Kendall-Tau distance: the number of discordant pairs between the two
    * rankings over the union of their items (items missing from a ranking are
    * placed, tied, after all ranked ones). The paper reports unnormalised
    * averages (e.g. 74.8 → 10.8).
    */
  def kendallTauDistance[T](a: Seq[T], b: Seq[T]): Double = {
    requireDistinct(a); requireDistinct(b)
    val items = (a ++ b).distinct.toIndexedSeq
    val ra    = a.zipWithIndex.toMap
    val rb    = b.zipWithIndex.toMap
    def rank(m: Map[T, Int], x: T): Int = m.getOrElse(x, m.size + items.size)
    var d = 0
    for {
      i <- items.indices
      j <- (i + 1) until items.size
    } {
      val x = items(i); val y = items(j)
      val sa = rank(ra, x) - rank(ra, y)
      val sb = rank(rb, x) - rank(rb, y)
      if (sa * sb < 0) d += 1
    }
    d.toDouble
  }

  /** nDCG of `pred` against graded relevance induced by `truth` order:
    * item at truth-rank r (0-based) has relevance (m − r); unranked items 0.
    */
  def ndcg[T](truth: Seq[T], pred: Seq[T]): Double = {
    requireDistinct(truth); requireDistinct(pred)
    if (truth.isEmpty) return 1.0
    val m   = truth.size
    val rel = truth.zipWithIndex.map { case (x, r) => x -> (m - r).toDouble }.toMap
    def dcg(order: Seq[T]): Double =
      order.zipWithIndex.map { case (x, i) =>
        rel.getOrElse(x, 0.0) / (math.log(i + 2) / math.log(2))
      }.sum
    val ideal = dcg(truth)
    if (ideal == 0) 1.0 else dcg(pred) / ideal
  }

  /** A ranking holds each item once: a repeated item has no one rank. */
  private def requireDistinct[T](ranking: Seq[T]): Unit =
    require(ranking.distinct.size == ranking.size, s"a ranking repeats items: ${ranking.diff(ranking.distinct)}")
}
