package repro.eval

import repro.baselines.{Rath, SeeDb}
import repro.core._
import repro.data.BenchQuery

/** Shared experiment harness: every reproduced table/figure is a function
  * here, called both by the bench suites (`bench/`) and the spark-submit
  * entrypoints (`jobs/`). Results are plain case classes; rendering is left
  * to the callers.
  */
object Experiments {

  final case class Timed[T](value: T, seconds: Double)

  def time[T](f: => T): Timed[T] = {
    val t0 = System.nanoTime()
    val v  = f
    Timed(v, (System.nanoTime() - t0) / 1e9)
  }

  // ------------------------------------------------- Tables 2 & 3 (queries)

  final case class QueryRow(num: Int, dataset: String, kind: String,
                            topColumn: String, topScore: Double, skylineSize: Int,
                            topCaption: String, seconds: Double)

  /** Run FEDEX over each query; one row per query with its most interesting
    * column and top skyline explanation (reproduces the usage of Tables 2–3
    * plus the Example 3.2/3.10-style numbers).
    */
  def queryTables(queries: Seq[BenchQuery], cfg: FedexConfig): Seq[QueryRow] =
    queries.map { q =>
      val t = time(Fedex.explain(q.step, cfg))
      val (topCol, topScore) = t.value.columnScores.toSeq
        .sortBy { case (a, s) => (-s, a) }.headOption.getOrElse(("-", 0.0))
      val caption = t.value.skyline.headOption.map(_.caption).getOrElse("(no positive-contribution set)")
      QueryRow(q.num, q.dataset, q.kind, topCol, topScore, t.value.skyline.size, caption, t.seconds)
    }

  // ------------------------------------------------------ Figures 7 & 8

  final case class AccuracyRow(label: String, precisionAt3: Double,
                               kendallTau: Double, ndcg: Double, queries: Int)

  /** Accuracy of FEDEX-SAMPLING vs exact FEDEX as ground truth: precision@3
    * on skyline keys, Kendall-Tau distance and nDCG on the full candidate
    * ranking — averaged over `queries`, one row per sample size (Fig 7).
    */
  def samplingAccuracy(queries: Seq[BenchQuery], sampleSizes: Seq[Long],
                       cfg: FedexConfig): Seq[AccuracyRow] = {
    val truths = queries.map(q => q -> Fedex.explain(q.step, cfg.copy(sampleRows = None)))
    sampleSizes.map { s =>
      val per = truths.map { case (q, truth) =>
        val pred      = Fedex.explain(q.step, cfg.copy(sampleRows = Some(s)))
        val truthSky  = truth.skyline.map(_.candidate.key)
        val predSky   = pred.skyline.map(_.candidate.key)
        val truthRank = truth.rankedKeys(cfg.wI, cfg.wC)
        val predRank  = pred.rankedKeys(cfg.wI, cfg.wC)
        (Metrics.precisionAtK(truthSky, predSky, 3),
         Metrics.kendallTauDistance(truthRank, predRank),
         Metrics.ndcg(truthRank, predRank))
      }
      AccuracyRow(s.toString,
        per.map(_._1).sum / per.size, per.map(_._2).sum / per.size,
        per.map(_._3).sum / per.size, per.size)
    }
  }

  /** Fig 8: accuracy of the fixed 5K sample as the row count grows. The
    * caller supplies a fresh query set per row count.
    */
  def accuracyVsRows(querySets: Seq[(Long, Seq[BenchQuery])], cfg: FedexConfig): Seq[AccuracyRow] =
    querySets.map { case (rows, qs) =>
      val row = samplingAccuracy(qs, Seq(5000L), cfg).head
      row.copy(label = rows.toString)
    }

  // ---------------------------------------------------------- Figure 9

  final case class RuntimeColsRow(dataset: String, nCols: Int, fedexSampling: Double,
                                  seedb: Double, rath: Double)

  /** Column names a query's operation itself needs (the paper always keeps
    * the query attribute in the projected schema).
    */
  def requiredCols(q: BenchQuery): Seq[(Int, Seq[String])] = q.step.op match {
    case f: FilterOp => Seq(0 -> f.columnsRead(q.step.inputs.head))
    case j: JoinOp => Seq(0 -> Seq(j.leftKey), 1 -> Seq(j.rightKey))
    case g: GroupByOp =>
      Seq(0 -> (g.keys ++ g.aggs.map(_.column).filter(_ != "*")).distinct)
    case _: UnionOp => q.step.inputs.indices.map(_ -> Seq.empty[String])
  }

  /** Rebuild the step with each input projected to (required ∪ chosen) cols. */
  def projectStep(q: BenchQuery, chosen: Seq[String]): Step = {
    val req = requiredCols(q).toMap
    val ins = q.step.inputs.zipWithIndex.map { case (df, i) =>
      val keep = (req.getOrElse(i, Seq.empty) ++ chosen.filter(df.columns.contains)).distinct
      df.select(keep.map(org.apache.spark.sql.functions.col): _*)
    }
    Step(ins, q.step.op, q.step.name)
  }

  /** Fig 9 protocol: always include the query attribute(s) and the most
    * interesting attribute, then add the remaining columns of the (first)
    * input in a fixed pseudo-random permutation; per column count, average
    * the runtime of FEDEX-SAMPLING / SEEDB / RATH over the dataset's queries.
    */
  def runtimeVsColumns(dataset: String, queries: Seq[BenchQuery], colCounts: Seq[Int],
                       cfg: FedexConfig, runRath: Boolean = true, seed: Long = 17): Seq[RuntimeColsRow] = {
    val rnd = new scala.util.Random(seed)
    // fixed per query across all column counts (the paper's protocol): the
    // query attribute(s), the most interesting attribute, then a fixed
    // permutation of the rest
    val columnOrder: Map[Int, Seq[String]] = queries.map { q =>
      val base = q.step.inputs.head
      val topInteresting = Fedex.explain(q.step,
        cfg.copy(topKColumns = 1, nSets = Seq(5))).columnScores
        .toSeq.sortBy(-_._2).headOption.map(_._1).getOrElse(base.columns.head)
      val required = requiredCols(q).flatMap(_._2)
      val rest     = rnd.shuffle(base.columns.toSeq.filterNot(c =>
        required.contains(c) || c == topInteresting))
      q.num -> (required ++ Seq(topInteresting).filter(base.columns.contains) ++ rest).distinct
    }.toMap
    colCounts.map { k =>
      val per = queries.map { q =>
        val chosen = columnOrder(q.num).take(k)
        val step   = projectStep(q, chosen)
        val tF = time(Fedex.explain(step, cfg)).seconds
        val tS = time(SeeDb.recommend(step, k = 3)).seconds
        val tR = if (runRath) time(Rath.topInsights(step.output, k = 3)).seconds else Double.NaN
        (tF, tS, tR)
      }
      RuntimeColsRow(dataset, k, per.map(_._1).sum / per.size,
        per.map(_._2).sum / per.size, per.map(_._3).sum / per.size)
    }
  }

  // --------------------------------------------------------- Figure 10

  final case class RuntimeRowsRow(dataset: String, rows: Long, fedex: Double,
                                  fedexSampling: Double, seedb: Double, rath: Double)

  /** Fig 10: runtime vs row count. The caller supplies a query set per row
    * count (fresh frames at each size).
    */
  def runtimeVsRows(dataset: String, querySets: Seq[(Long, Seq[BenchQuery])],
                    cfg: FedexConfig, runExact: Boolean = true,
                    runRath: Boolean = true): Seq[RuntimeRowsRow] =
    querySets.map { case (rows, qs) =>
      val per = qs.map { q =>
        val tE = if (runExact) time(Fedex.explain(q.step, cfg.copy(sampleRows = None))).seconds else Double.NaN
        val tF = time(Fedex.explain(q.step, cfg.copy(sampleRows = Some(5000)))).seconds
        val tS = time(SeeDb.recommend(q.step, k = 3)).seconds
        val tR = if (runRath) time(Rath.topInsights(q.step.output, k = 3)).seconds else Double.NaN
        (tE, tF, tS, tR)
      }
      RuntimeRowsRow(dataset, rows, per.map(_._1).sum / per.size, per.map(_._2).sum / per.size,
        per.map(_._3).sum / per.size, per.map(_._4).sum / per.size)
    }

  // --------------------------------------------------------- Figure 11

  final case class SetsRow(n: Int, topContribution: Double, topSet: String)

  /** Fig 11: top raw contribution as the number of sets-of-rows varies, for a
    * fixed query (the explained column stays whatever scores highest).
    */
  def setsOfRowsSweep(q: BenchQuery, ns: Seq[Int], cfg: FedexConfig): Seq[SetsRow] =
    ns.map { n =>
      val res = Fedex.explain(q.step, cfg.copy(nSets = Seq(n)))
      val top = res.candidates.sortBy(c => (-c.contribution, c.key)).headOption
      SetsRow(n, top.map(_.contribution).getOrElse(0.0), top.map(_.set).getOrElse("-"))
    }

  // ------------------------------------------------ User study (Figs 3/5/6)

  final case class StudyRow(dataset: String, method: String, grade: Double, queries: Int)

  /** Figs 3/6 proxy: average simulated 1–7 grade per (dataset, method). */
  def userStudy(queries: Seq[BenchQuery], methods: Seq[String],
                cfg: FedexConfig): Seq[StudyRow] = {
    val withTruth = queries.flatMap(q => UserProxy.planted.find(_.queryNum == q.num).map(q -> _))
    withTruth.groupBy(_._1.dataset).toSeq.sortBy(_._1).flatMap { case (ds, qs) =>
      methods.map { m =>
        val grades = qs.map { case (q, ins) => UserProxy.grade(UserProxy.credit(m, q, ins, cfg)) }
        StudyRow(ds, m, grades.sum / grades.size, grades.size)
      }
    }
  }

  final case class InsightRow(dataset: String, assisted: Double, unassisted: Double)

  /** Fig 5 proxy: planted insights recovered with FEDEX assistance vs the
    * random-glance unassisted simulation at the same probe budget.
    */
  def insightStudy(spotifyQs: Seq[BenchQuery], bankQs: Seq[BenchQuery],
                   cfg: FedexConfig, probes: Int = 10, seed: Long = 3): Seq[InsightRow] = {
    def assisted(qs: Seq[BenchQuery]): Double =
      qs.flatMap(q => UserProxy.planted.find(_.queryNum == q.num).map(q -> _))
        .count { case (q, ins) => UserProxy.credit("FEDEX-SAMPLING", q, ins, cfg) >= 0.5 }.toDouble
    def unassisted(qs: Seq[BenchQuery]): Double = {
      val cols = qs.head.step.inputs.head.columns.toSeq
      val ins  = qs.flatMap(q => UserProxy.planted.find(_.queryNum == q.num))
      UserProxy.unassistedHits(cols, ins, probes, seed).toDouble
    }
    Seq(
      InsightRow("Spotify", assisted(spotifyQs), unassisted(spotifyQs)),
      InsightRow("Bank", assisted(bankQs), unassisted(bankQs)))
  }
}
