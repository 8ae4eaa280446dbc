package repro.core

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Tunables for the explanation generation of Algorithm 1.
  *
  * @param nSets        numbers of sets-of-rows to try per partition method
  *                     (the paper uses both 5 and 10 and skylines across all)
  * @param topKColumns  greedy step (1): only the most interesting columns get
  *                     contribution analysis (§1, "two-step greedy approach")
  * @param sampleRows   FEDEX-SAMPLING: interestingness over a uniform sample
  * @param maxBins      KS bucketisation bound for high-cardinality numerics
  * @param wI, wC       weights of the optional weighted ranking (§3.7)
  * @param userColumns  §3.8 user-specified columns: restrict the search
  * @param crossColumns pair every partition with every top column (the full
  *                     EC cross product of Algorithm 1) instead of only the
  *                     column-aligned pairs exercised in the paper's examples
  */
final case class FedexConfig(
    nSets: Seq[Int] = Seq(5, 10),
    topKColumns: Int = 5,
    sampleRows: Option[Long] = None,
    maxBins: Int = Ks.MaxBins,
    wI: Double = 1.0,
    wC: Double = 1.0,
    userColumns: Option[Seq[String]] = None,
    enableManyToOne: Boolean = true,
    crossColumns: Boolean = false,
    seed: Long = Sampling.Seed)

/** One explanation candidate (R, A) with its quality scores (§3.4–3.6). */
final case class ExplanationCandidate(
    attr: String, measure: String, method: String,
    partitionAttr: String, labelAttr: String, set: String,
    interestingness: Double, contribution: Double, stdContribution: Double,
    stats: SetStats) {
  /** Stable identity for rank-comparison metrics. */
  def key: String = s"$attr|$method|$labelAttr|$set"
  def weightedScore(wI: Double, wC: Double): Double =
    (wI * interestingness + wC * stdContribution) / (wI + wC)
}

/** A skyline explanation rendered for the user. */
final case class Explanation(candidate: ExplanationCandidate, caption: String, weightedScore: Double)

/** Full result of Algorithm 1 for one exploratory step. */
final case class FedexResult(columnScores: Map[String, Double],
                             candidates: Seq[ExplanationCandidate],
                             skyline: Seq[Explanation]) {
  /** Every candidate key once, ranked by its best weighted score (used by
    * accuracy metrics). The partitions of one attribute for different set
    * counts share sets, so their candidates share keys; a set's C depends
    * only on its rows, but C̄ on its partition.
    */
  def rankedKeys(wI: Double = 1.0, wC: Double = 1.0): Seq[String] =
    candidates.groupMapReduce(_.key)(_.weightedScore(wI, wC))(math.max)
      .toSeq.sortBy { case (k, s) => (-s, k) }.map(_._1)
}

/** FEDEX explanation generation (paper Algorithm 1). */
object Fedex {

  /** Partition targets for explaining output column `attr`: which input index
    * to partition and on which of its attributes. Mirrors the paper's
    * examples: the grouping keys for group-by (the diversity is across
    * groups), else the column's first source (the deviation is in that
    * column).
    */
  private def partitionTargets(step: Step, attr: String): Seq[(Int, String)] =
    step.op match {
      case g: GroupByOp => g.keys.map(0 -> _)
      case _            => step.sources(attr).take(1)
    }

  /** Attributes excluded from explanation: the filter predicate's own columns
    * (explaining "popularity deviates after filtering on popularity" is
    * vacuous — the paper's Example 3.2 accordingly ranks decade/year/loudness,
    * not popularity, for the popularity filter).
    */
  def excludedAttrs(step: Step): Set[String] = step.op match {
    case f: FilterOp => f.columnsRead(step.inputs.head).toSet
    case _           => Set.empty
  }

  def explain(step: Step, cfg: FedexConfig = FedexConfig()): FedexResult = {
    val measure = if (step.op.kind == "groupby") "diversity" else "exceptionality"

    // Everything below runs on one pool as composed futures, so no pool
    // thread waits on another: each input's profile, then the full inputs'
    // KS key spaces, in which the columns are scored, then each input's
    // partitions, then each target's contributions as soon as they are built.
    val (columnScores, scored) = withPool { implicit ec =>
      val attrs = cfg.userColumns.getOrElse {
        val excluded = excludedAttrs(step)
        step.outputAttrs.filterNot(excluded)
      }

      // One profile per input: the many-to-one pre-filter of its targets and
      // the distinct counts of its key spaces.
      val profiles = step.inputs.map(in => Future(Partition.profile(in)))
      // The full inputs' key spaces, once per (input, column): read by the
      // interestingness, sampled or not, and by every contribution query.
      // They wait only for the profiles of inputs with source columns (none
      // for group-by), so a group-by is scored while its profile runs.
      val sourced = attrs.flatMap(step.sources).map(_._1).toSet
      val fullKeys: Future[Interestingness.KeySpaces] = Future.traverse(profiles.zipWithIndex) { case (p, i) =>
        if (sourced(i)) p else Future.successful(Map.empty[String, Long])
      }.map(Interestingness.keySpaces(step, attrs, cfg.maxBins, _))

      // Lines 1-2 (+ sampling optimization): per-column interestingness.
      val columnScores = Interestingness.scores(step, attrs, cfg.sampleRows, cfg.seed,
        Await.result(fullKeys, Duration.Inf))
      val topCols = columnScores.toSeq.sortBy { case (a, s) => (-s, a) }
        .take(cfg.topKColumns).map(_._1)

      // Lines 3-6: row partitions, one `Partition.candidates` call per input
      // for all of its targets (shared across columns).
      val targets: Seq[(Int, String)] = topCols.flatMap(partitionTargets(step, _)).distinct
      val partitions = targets.groupMap(_._1)(_._2).map { case (idx, pattrs) =>
        idx -> profiles(idx).map(p =>
          Partition.candidates(step.inputs(idx), pattrs, cfg.nSets, Option.when(cfg.enableManyToOne)(p)))
      }

      // Lines 7-12: contributions of each target's partitions to the top
      // columns explained on it, one `Contribution.ofTarget` call per target.
      val perTarget = Future.traverse(targets) { case t @ (idx, pattr) =>
        val cols = topCols.filter(a => cfg.crossColumns || partitionTargets(step, a).contains(t))
        // identical partitions (e.g. n=5 and n=10 over a 3-value column) dedupe
        val parts = partitions(idx).map(_(pattr).groupBy(p => (p.method, p.labelAttr, p.sets)).values.map(_.head).toSeq)
        parts.zipWith(fullKeys)(Contribution.ofTarget(step, cols, _, idx, _))
      }
      (columnScores, Await.result(perTarget, Duration.Inf).flatten)
    }
    val partitionOf = scored.map { case (a, p, _) => (a, p.method, p.labelAttr) -> p }.toMap
    val candidates  = scored.flatMap { case (a, p, res) =>
      val std = res.standardized
      res.perSet.toSeq.collect {
        case (set, c) if c > 0 =>
          ExplanationCandidate(
            attr = a, measure = measure, method = p.method,
            partitionAttr = p.attr, labelAttr = p.labelAttr, set = set,
            interestingness = columnScores(a),
            contribution = c, stdContribution = std(set),
            stats = res.stats.getOrElse(set, SetStats()))
      }
    }

    // Line 13: the interestingness/contribution skyline.
    val sky = Skyline.of(candidates)(_.interestingness, _.stdContribution)
    // Lines 14-15: captions, ranked by the optional weighted score.
    val explanations = sky.map { c =>
      val p = partitionOf((c.attr, c.method, c.labelAttr))
      Explanation(c, Caption.render(c.measure, c.attr, p, c.set,
        c.interestingness, c.stdContribution, c.stats), c.weightedScore(cfg.wI, cfg.wC))
    }.sortBy(e => (-e.weightedScore, e.candidate.key))

    FedexResult(columnScores, candidates, explanations)
  }

  /** Runs `body` on a pool of 8 daemon threads, shut down when it returns,
    * so no thread outlives the explain that started it and a finished
    * program exits on its own.
    */
  private def withPool[T](body: ExecutionContext => T): T = {
    val default = Executors.defaultThreadFactory()
    val pool = Executors.newFixedThreadPool(8, r => { val t = default.newThread(r); t.setDaemon(true); t })
    try body(ExecutionContext.fromExecutorService(pool))
    finally pool.shutdown()
  }
}
