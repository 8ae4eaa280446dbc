package perfbench

import java.util.concurrent.{Executors, TimeUnit}
import org.apache.spark.SparkContext
import repro.core._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** What one replayed explain did, besides its result. */
final case class ReplayOut(result: FedexResult, spans: Seq[Span],
                           columns: Int, targets: Int, built: Int, distinct: Int,
                           pairs: Seq[(Span, String)], setsScored: Int)

/** `Fedex.explain` replayed from outside, with a span around each call into a
  * public layer function: `Interestingness.scores`, `Partition.candidatesMulti`
  * per target, `Contribution.all` per (column, partition) pair, `Skyline.of`
  * and `Caption.render`. The control flow copies `Fedex.explain` line by line;
  * the replay is only trusted when its candidates and skyline equal the
  * program's (`Replay.sameResult`).
  */
object Replay {

  /** Copy of the private `Fedex.partitionTargets`: the column itself for
    * filter and union, the owning input for join, the keys for group-by.
    */
  def partitionTargets(step: Step, attr: String): Seq[(Int, String)] =
    step.op match {
      case _: FilterOp  => if (step.inputs.head.columns.contains(attr)) Seq(0 -> attr) else Seq.empty
      case j: JoinOp    => j.inputOf(attr).toSeq
      case _: UnionOp   => if (step.inputs.head.columns.contains(attr)) Seq(0 -> attr) else Seq.empty
      case g: GroupByOp => g.keys.map(0 -> _)
    }

  /** Threads in `Fedex.explain`'s contribution pool. */
  val PoolSize = 8

  def explain(step: Step, cfg: FedexConfig, sc: SparkContext, tracer: Tracer,
              explainId: Int): ReplayOut = {
    val executor = Executors.newFixedThreadPool(PoolSize)
    try run(step, cfg, sc, tracer, explainId, ExecutionContext.fromExecutorService(executor))
    finally { executor.shutdown(); executor.awaitTermination(1, TimeUnit.MINUTES) }
  }

  private def run(step: Step, cfg: FedexConfig, sc: SparkContext, tracer: Tracer,
                  explainId: Int, pool: ExecutionContext): ReplayOut = {
    val ((result, counts), _) = tracer.span("explain", explainId, None) { root =>
      val attrs = cfg.userColumns.getOrElse {
        val excluded = Fedex.excludedAttrs(step)
        step.outputAttrs.filterNot(excluded)
      }
      val (columnScores, _) = tracer.span("interestingness", explainId, Some(root)) { _ =>
        Interestingness.scores(step, attrs, cfg.maxBins, cfg.sampleRows, cfg.seed)
      }
      val topCols = columnScores.toSeq.sortBy { case (a, s) => (-s, a) }
        .take(cfg.topKColumns).map(_._1)

      val targets = topCols.flatMap(partitionTargets(step, _)).distinct
      val ((partitionsByTarget, built), _) = tracer.span("partition", explainId, Some(root)) { phase =>
        val perTarget = targets.map { case (idx, pattr) =>
          val (parts, _) = tracer.span("partition.target", explainId, Some(phase)) { _ =>
            Partition.candidatesMulti(step.inputs(idx), pattr, cfg.nSets, cfg.enableManyToOne)
          }
          val distinctParts = parts
            .groupBy(p => (p.method, p.labelAttr, p.sets)).values.map(_.head).toSeq
          ((idx, pattr) -> distinctParts, parts.size)
        }
        (perTarget.map(_._1).toMap, perTarget.map(_._2).sum)
      }

      val measure = if (step.op.kind == "groupby") "diversity" else "exceptionality"
      val pairs: Seq[(String, Int, RowPartition)] = topCols.flatMap { a =>
        val ts = if (cfg.crossColumns) targets else partitionTargets(step, a)
        ts.flatMap { case (idx, pattr) =>
          partitionsByTarget.getOrElse((idx, pattr), Seq.empty).map(p => (a, idx, p))
        }
      }.distinct
      val ((perPair, partitionOf), _) = tracer.span("contribution", explainId, Some(root)) { phase =>
        implicit val ec: ExecutionContext = pool
        val futures = pairs.zipWithIndex.map { case ((a, idx, p), i) =>
          Future {
            val group = s"perfbench-e$explainId-pair$i"
            sc.setJobGroup(group, s"contribution pair $i", interruptOnCancel = false)
            try {
              val (res, span) = tracer.span("contribution.pair", explainId, Some(phase)) { _ =>
                Contribution.all(step, a, p, idx, cfg.maxBins)
              }
              val cands = res.toSeq.flatMap { r =>
                val std = r.standardized
                r.perSet.toSeq.collect {
                  case (set, c) if c > 0 =>
                    ExplanationCandidate(
                      attr = a, measure = measure, method = p.method,
                      partitionAttr = p.attr, labelAttr = p.labelAttr, set = set,
                      interestingness = columnScores.getOrElse(a, r.full),
                      contribution = c, stdContribution = std(set),
                      stats = r.stats.getOrElse(set, SetStats()))
                }
              }
              (cands, res.map(_.perSet.size).getOrElse(0), (span, group))
            } finally sc.clearJobGroup()
          }
        }
        val partitionOf = pairs.map { case (a, _, p) => (a, p.method, p.labelAttr) -> p }.toMap
        (Await.result(Future.sequence(futures), Duration.Inf), partitionOf)
      }
      val candidates = perPair.flatMap(_._1)

      val (sky, _) = tracer.span("skyline", explainId, Some(root)) { _ =>
        Skyline.of(candidates)(_.interestingness, _.stdContribution)
      }
      val (explanations, _) = tracer.span("caption", explainId, Some(root)) { _ =>
        sky.map { c =>
          val p = partitionOf((c.attr, c.method, c.labelAttr))
          Explanation(c, Caption.render(c.measure, c.attr, p, c.set,
            c.interestingness, c.stdContribution, c.stats), c.weightedScore(cfg.wI, cfg.wC))
        }.sortBy(e => (-e.weightedScore, e.candidate.key))
      }
      (FedexResult(columnScores, candidates, explanations),
        (attrs.size, targets.size, built, partitionsByTarget.values.map(_.size).sum,
          perPair.map(_._3), perPair.map(_._2).sum))
    }
    val (columns, nTargets, built, distinct, pairSpans, scored) = counts
    ReplayOut(result, tracer.all.filter(_.explainId == explainId), columns, nTargets, built,
      distinct, pairSpans, scored)
  }

  /** Same candidates (as a multiset, scores to 1e-9) and the same skyline. */
  def sameResult(a: FedexResult, b: FedexResult): Boolean = {
    def close(x: Double, y: Double) = x == y || math.abs(x - y) <= 1e-9
    def sorted(r: FedexResult) =
      r.candidates.sortBy(c => (c.key, c.partitionAttr, math.round(c.stdContribution * 1e6)))
    val ca = sorted(a); val cb = sorted(b)
    ca.size == cb.size && ca.zip(cb).forall { case (x, y) =>
      x.key == y.key && x.partitionAttr == y.partitionAttr && x.measure == y.measure &&
        close(x.interestingness, y.interestingness) && close(x.contribution, y.contribution) &&
        close(x.stdContribution, y.stdContribution)
    } && a.skyline.map(_.candidate.key) == b.skyline.map(_.candidate.key)
  }
}
