package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{approx_count_distinct, col}
import java.util.concurrent.Executors
import repro.core._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** Output checks on one explain result. Each returns the problems found;
  * an empty list means the result passed.
  */
object Checks {

  /** Tolerance on a raw contribution whose column has at most `maxBins`
    * distinct values: the fast path and `Contribution.exact` count the same
    * cells, so only float rounding differs.
    */
  val ExactTol = 1e-9

  /** Tolerance on a raw contribution over a bucketised high-cardinality
    * numeric. `Contribution.exact` takes its KS key space from the reduced
    * input, the fast path from the full input (the approximation DESIGN.md
    * documents). Bucketing moves a KS statistic by at most the largest mass
    * one bucket holds on either side: about 1/1024 of the input plus twice
    * `approxQuantile`'s 0.001 rank error, and on a filtered output the same
    * rows weigh up to 1/selectivity more. 0.02 covers a selectivity of 15%.
    */
  val BucketTol = 0.02

  /** Skyline members must not dominate each other and must have C > 0. */
  def skyline(res: FedexResult): Seq[String] = {
    val sky = res.skyline.map(_.candidate)
    val dominated = for {
      x <- sky; o <- sky if o ne x
      if o.interestingness >= x.interestingness && o.stdContribution >= x.stdContribution &&
        (o.interestingness > x.interestingness || o.stdContribution > x.stdContribution)
    } yield s"skyline member ${x.key} is dominated by ${o.key}"
    val nonPositive = sky.filterNot(_.contribution > 0).map(c => s"skyline member ${c.key} has C = ${c.contribution}")
    dominated ++ nonPositive
  }

  /** Each skyline member's raw contribution, recomputed by the interventional
    * reference `Contribution.exact` on the member's partition, rebuilt with
    * the public partition functions `Fedex.explain` builds it with.
    */
  def contributions(step: Step, cfg: FedexConfig, res: FedexResult): Seq[String] = {
    // Members are checked concurrently: each check is a handful of small
    // Spark jobs whose latency, not the cores, bounds the time.
    val executor = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(executor)
    try Await.result(Future.traverse(res.skyline.map(_.candidate))(c => Future(member(step, cfg, c))),
      Duration.Inf).flatten
    finally executor.shutdown()
  }

  private def member(step: Step, cfg: FedexConfig, c: ExplanationCandidate): Seq[String] = {
    val idx = inputIndex(step, c)
    rebuild(step.inputs(idx), c, cfg.nSets) match {
      case None => Seq(s"${c.key}: no rebuilt partition holds set '${c.set}'")
      case Some(p) =>
        Contribution.exact(step, c.attr, p, c.set, idx, cfg.maxBins) match {
          case None => Seq(s"${c.key}: Contribution.exact does not apply")
          case Some(ref) =>
            val tol = if (bucketised(step, c, cfg.maxBins)) BucketTol else ExactTol
            if (math.abs(ref - c.contribution) <= tol) Seq.empty
            else Seq(f"${c.key}: contribution ${c.contribution}%.12f, exact $ref%.12f (tolerance $tol)")
        }
    }
  }

  /** The candidate's partition: the first set count whose partition holds
    * the candidate's set (a set names the same rows under every count).
    */
  private def rebuild(df: DataFrame, c: ExplanationCandidate, ns: Seq[Int]): Option[RowPartition] =
    ns.iterator.map { n =>
      c.method match {
        case "frequency"   => Partition.frequency(df, c.partitionAttr, n)
        case "numeric"     => Partition.numericBins(df, c.partitionAttr, n)
        case "many-to-one" =>
          val p = Partition.frequency(df, c.labelAttr, n)
          RowPartition("many-to-one", c.partitionAttr, Some(c.labelAttr), p.labeled, p.sets)
      }
    }.find(_.sets.contains(c.set))

  /** The input a candidate's partition was built on (`Replay.partitionTargets`). */
  private def inputIndex(step: Step, c: ExplanationCandidate): Int = step.op match {
    case j: JoinOp => j.inputOf(c.attr).map(_._1).getOrElse(0)
    case _         => 0
  }

  /** Does KS bucketise the explained column (as `Ks.keyExpr` decides)? */
  private def bucketised(step: Step, c: ExplanationCandidate, maxBins: Int): Boolean =
    c.measure == "exceptionality" && {
      val (owner, column) = step.op match {
        case j: JoinOp => j.inputOf(c.attr).map { case (i, orig) => (step.inputs(i), orig) }
          .getOrElse((step.output, c.attr))
        case _ => (step.inputs.head, c.attr)
      }
      Ks.isNumeric(owner, column) &&
        owner.agg(approx_count_distinct(col(column))).head.getLong(0) > maxBins
    }
}
